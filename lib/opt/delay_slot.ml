let will_emit_transfer ~layout_next (b : Mir.Block.t) =
  match b.Mir.Block.term.kind with
  | Mir.Block.Br _ | Mir.Block.Jtab _ | Mir.Block.Ret _ -> true
  | Mir.Block.Jmp l -> (
    match layout_next with Some n -> not (String.equal n l) | None -> true)
  | Mir.Block.Switch _ -> false

let fillable term_uses insn =
  match insn with
  | Mir.Insn.Cmp _ | Mir.Insn.Call _ | Mir.Insn.Profile_range _
  | Mir.Insn.Profile_comb _ | Mir.Insn.Nop ->
    false
  | Mir.Insn.Mov _ | Mir.Insn.Unop _ | Mir.Insn.Binop _ | Mir.Insn.Load _
  | Mir.Insn.Store _ ->
    List.for_all
      (fun d -> not (List.exists (Mir.Reg.equal d) term_uses))
      (Mir.Insn.defs insn)

let fill_block ~layout_next (b : Mir.Block.t) =
  if
    b.Mir.Block.term.delay = None
    && will_emit_transfer ~layout_next b
  then begin
    match List.rev b.Mir.Block.insns with
    | last :: rev_rest
      when fillable (Mir.Liveness.term_uses b.Mir.Block.term) last ->
      b.Mir.Block.insns <- List.rev rev_rest;
      b.Mir.Block.term <- { b.Mir.Block.term with delay = Some last };
      true
    | _ -> false
  end
  else false

(* phase two: steal the first instruction of a single-predecessor target
   (annulled for conditional branches, plain for jumps) *)
let stealable insn =
  match insn with
  | Mir.Insn.Cmp _ | Mir.Insn.Call _ | Mir.Insn.Profile_range _
  | Mir.Insn.Profile_comb _ | Mir.Insn.Nop ->
    false
  | Mir.Insn.Mov _ | Mir.Insn.Unop _ | Mir.Insn.Binop _ | Mir.Insn.Load _
  | Mir.Insn.Store _ ->
    true

(* [preds] is the function's predecessor map: neither phase changes an
   edge, so one map serves every block *)
let steal_from_target fn preds ~layout_next (b : Mir.Block.t) =
  if b.Mir.Block.term.delay <> None || not (will_emit_transfer ~layout_next b)
  then false
  else begin
    (* a branch whose arms agree runs the target on both outcomes, so an
       annulled slot would skip its first instruction when not taken *)
    let target_annul =
      match b.Mir.Block.term.kind with
      | Mir.Block.Br (_, taken, not_taken) when String.equal taken not_taken ->
        None
      | Mir.Block.Br (_, taken, _) -> Some (taken, true)
      | Mir.Block.Jmp l -> Some (l, false)
      | Mir.Block.Jtab _ | Mir.Block.Ret _ | Mir.Block.Switch _ -> None
    in
    match target_annul with
    | Some (target, annul) when not (String.equal target b.Mir.Block.label) -> (
      let single_pred =
        match Hashtbl.find_opt preds target with
        | Some [ p ] -> String.equal p b.Mir.Block.label
        | Some _ | None -> false
      in
      if not single_pred then false
      else
        match Mir.Func.find_block_opt fn target with
        | Some tb -> (
          match tb.Mir.Block.insns with
          | first :: rest when stealable first ->
            tb.Mir.Block.insns <- rest;
            b.Mir.Block.term <- { b.Mir.Block.term with delay = Some first };
            b.Mir.Block.term.annul <- annul;
            true
          | _ -> false)
        | None -> false)
    | Some _ | None -> false
  end

let run_func ?(steal = true) (fn : Mir.Func.t) =
  let fill step =
    let rec go count = function
      | [] -> count
      | [ b ] -> if step ~layout_next:None b then count + 1 else count
      | b :: (next :: _ as rest) ->
        let filled = step ~layout_next:(Some next.Mir.Block.label) b in
        go (if filled then count + 1 else count) rest
    in
    go 0 fn.Mir.Func.blocks
  in
  let above = fill fill_block in
  let stolen =
    if steal then fill (steal_from_target fn (Mir.Func.predecessors fn))
    else 0
  in
  above + stolen

let run ?steal (p : Mir.Program.t) =
  List.fold_left (fun acc fn -> acc + run_func ?steal fn) 0 p.Mir.Program.funcs

let strip_func (fn : Mir.Func.t) =
  List.iter
    (fun (b : Mir.Block.t) ->
      match b.Mir.Block.term.delay with
      | Some insn ->
        (if b.Mir.Block.term.annul then
           (* an annulled instruction was stolen from the taken target;
              it executes only on that path, so it must go back there *)
           match b.Mir.Block.term.kind with
           | Mir.Block.Br (_, taken, _) -> (
             match Mir.Func.find_block_opt fn taken with
             | Some tb -> tb.Mir.Block.insns <- insn :: tb.Mir.Block.insns
             | None -> b.Mir.Block.insns <- b.Mir.Block.insns @ [ insn ])
           | _ -> b.Mir.Block.insns <- b.Mir.Block.insns @ [ insn ]
         else b.Mir.Block.insns <- b.Mir.Block.insns @ [ insn ]);
        b.Mir.Block.term <- { b.Mir.Block.term with delay = None };
        b.Mir.Block.term.annul <- false
      | None -> ())
    fn.Mir.Func.blocks

let strip (p : Mir.Program.t) = List.iter strip_func p.Mir.Program.funcs
