module RS = Mir.Reg.Set

let loop_insns fn (loop : Analysis.Loops.loop) =
  List.concat_map
    (fun label ->
      match Mir.Func.find_block_opt fn label with
      | Some b ->
        let delay =
          match b.Mir.Block.term.Mir.Block.delay with
          | Some i -> [ i ]
          | None -> []
        in
        b.Mir.Block.insns @ delay
      | None -> [])
    loop.Analysis.Loops.l_body

let hoistable_kind ~loop_has_effects insn =
  match insn with
  | Mir.Insn.Mov _ | Mir.Insn.Unop _ -> true
  | Mir.Insn.Binop ((Mir.Insn.Div | Mir.Insn.Rem), _, _, _) -> false
  | Mir.Insn.Binop _ -> true
  | Mir.Insn.Load _ -> not loop_has_effects
  | Mir.Insn.Store _ | Mir.Insn.Cmp _ | Mir.Insn.Call _ | Mir.Insn.Nop
  | Mir.Insn.Profile_range _ | Mir.Insn.Profile_comb _ ->
    false

let preheader fn (loop : Analysis.Loops.loop) =
  let header = loop.Analysis.Loops.l_header in
  let preds = Mir.Func.predecessors fn in
  let header_preds =
    match Hashtbl.find_opt preds header with Some ps -> ps | None -> []
  in
  let outside =
    List.filter (fun p -> not (Analysis.Loops.in_body loop p)) header_preds
  in
  let reusable =
    match outside with
    | [ single ] -> (
      match Mir.Func.find_block_opt fn single with
      | Some b when Mir.Func.successors fn b = [ header ] -> Some single
      | _ -> None)
    | _ -> None
  in
  match reusable with
  | Some label -> label
  | None ->
    let label = Mir.Func.fresh_label fn in
    let nb = Mir.Block.make ~label [] (Mir.Block.Jmp header) in
    List.iter
      (fun p ->
        match Mir.Func.find_block_opt fn p with
        | Some pb -> (
          pb.Mir.Block.term <-
            Mir.Block.retarget_term pb.Mir.Block.term ~from:header ~into:label;
          match pb.Mir.Block.term.Mir.Block.kind with
          | Mir.Block.Jtab (_, id) ->
            let table = Mir.Func.jtab fn id in
            Array.iteri
              (fun i t -> if String.equal t header then table.(i) <- label)
              table
          | Mir.Block.Br _ | Mir.Block.Jmp _ | Mir.Block.Switch _
          | Mir.Block.Ret _ ->
            ())
        | None -> ())
      outside;
    (* place the preheader right before the header; when the header is
       the entry block this makes the preheader the new entry, keeping
       it reachable even with no outside predecessors *)
    let rec insert = function
      | [] -> [ nb ]
      | (b : Mir.Block.t) :: rest ->
        if String.equal b.Mir.Block.label header then nb :: b :: rest
        else b :: insert rest
    in
    fn.Mir.Func.blocks <- insert fn.Mir.Func.blocks;
    label

(* [live] is the function's liveness, valid while the function is
   unchanged: a loop that hoists nothing changes nothing *)
let hoist_from_loop fn ~live (loop : Analysis.Loops.loop) =
  let insns = loop_insns fn loop in
  let loop_has_effects =
    List.exists
      (function
        | Mir.Insn.Store _ | Mir.Insn.Call _ -> true
        | _ -> false)
      insns
  in
  (* registers defined in the loop, with definition counts *)
  let def_count = Hashtbl.create 32 in
  List.iter
    (fun i ->
      List.iter
        (fun r ->
          Hashtbl.replace def_count r
            (1 + Option.value ~default:0 (Hashtbl.find_opt def_count r)))
        (Mir.Insn.defs i))
    insns;
  let defined_in_loop r = Hashtbl.mem def_count r in
  let body = Hashtbl.create 16 in
  List.iter (fun l -> Hashtbl.replace body l ()) loop.Analysis.Loops.l_body;
  let in_loop = Hashtbl.mem body in
  (* registers live on entry to any block just outside the loop *)
  let exit_live =
    List.fold_left
      (fun acc label ->
        match Mir.Func.find_block_opt fn label with
        | Some b ->
          List.fold_left
            (fun acc s ->
              if in_loop s then acc
              else RS.union acc (Mir.Liveness.live_in live s))
            acc (Mir.Func.successors fn b)
        | None -> acc)
      RS.empty loop.Analysis.Loops.l_body
  in
  let header_live = Mir.Liveness.live_in live loop.Analysis.Loops.l_header in
  let can_hoist insn =
    hoistable_kind ~loop_has_effects insn
    && (match Mir.Insn.defs insn with
       | [ dst ] ->
         Hashtbl.find_opt def_count dst = Some 1
         && (not (RS.mem dst header_live))
         && not (RS.mem dst exit_live)
       | _ -> false)
    && List.for_all (fun r -> not (defined_in_loop r)) (Mir.Insn.uses insn)
  in
  let hoisted = ref [] in
  List.iter
    (fun label ->
      match Mir.Func.find_block_opt fn label with
      | Some b ->
        let keep, move = List.partition (fun i -> not (can_hoist i)) b.Mir.Block.insns in
        if move <> [] then begin
          b.Mir.Block.insns <- keep;
          hoisted := !hoisted @ move;
          (* the moved registers are now defined outside; forget them so a
             second definition in another block is not also hoisted *)
          List.iter
            (fun i -> List.iter (fun r -> Hashtbl.remove def_count r) (Mir.Insn.defs i))
            move
        end
      | None -> ())
    loop.Analysis.Loops.l_body;
  (match !hoisted with
  | [] -> ()
  | moved ->
    let ph = preheader fn loop in
    let phb = Mir.Func.find_block fn ph in
    phb.Mir.Block.insns <- phb.Mir.Block.insns @ moved);
  List.length !hoisted

let run_func (fn : Mir.Func.t) =
  let total = ref 0 in
  let continue_ = ref true in
  let rounds = ref 0 in
  let live = ref (lazy (Mir.Liveness.compute fn)) in
  while !continue_ && !rounds < 10 do
    incr rounds;
    let n =
      List.fold_left
        (fun acc loop ->
          let k = hoist_from_loop fn ~live:(Lazy.force !live) loop in
          if k > 0 then live := lazy (Mir.Liveness.compute fn);
          acc + k)
        0
        (Analysis.Loops.loops (Analysis.Loops.analyze fn))
    in
    total := !total + n;
    continue_ := n > 0
  done;
  !total

let run (p : Mir.Program.t) =
  List.fold_left (fun acc fn -> acc + run_func fn) 0 p.Mir.Program.funcs
