type counts = (string, int * int) Hashtbl.t

(* the successor we want placed next: the branch arm executed more often
   (a branch whose taken arm ran more is inverted so that arm falls
   through), the not-taken arm when no counts say otherwise, the jump
   target, or the switch default *)
let preferred_fallthrough counts (b : Mir.Block.t) =
  match b.Mir.Block.term.Mir.Block.kind with
  | Mir.Block.Br (cond, taken, not_taken) -> (
    let label = b.Mir.Block.label in
    match Option.bind counts (fun c -> Hashtbl.find_opt c label) with
    | Some (t, nt) when t > nt ->
      b.Mir.Block.term <-
        {
          b.Mir.Block.term with
          Mir.Block.kind = Mir.Block.Br (Mir.Cond.negate cond, not_taken, taken);
        };
      Some taken
    | _ -> Some not_taken)
  | Mir.Block.Jmp l -> Some l
  | Mir.Block.Switch (_, _, default) -> Some default
  | Mir.Block.Jtab _ | Mir.Block.Ret _ -> None

let run_func ?counts (fn : Mir.Func.t) =
  match fn.Mir.Func.blocks with
  | [] -> false
  | original ->
    let by_label = Hashtbl.create 64 in
    List.iter
      (fun (b : Mir.Block.t) -> Hashtbl.replace by_label b.Mir.Block.label b)
      original;
    let placed = Hashtbl.create 64 in
    let order = ref [] in
    let rec chain (b : Mir.Block.t) =
      Hashtbl.replace placed b.Mir.Block.label ();
      order := b :: !order;
      match preferred_fallthrough counts b with
      | Some next when not (Hashtbl.mem placed next) -> (
        match Hashtbl.find_opt by_label next with
        | Some nb -> chain nb
        | None -> ())
      | Some _ | None -> ()
    in
    chain (List.hd original);
    List.iter
      (fun (b : Mir.Block.t) ->
        if not (Hashtbl.mem placed b.Mir.Block.label) then chain b)
      original;
    let new_order = List.rev !order in
    let changed =
      not
        (List.equal
           (fun (a : Mir.Block.t) (b : Mir.Block.t) ->
             String.equal a.Mir.Block.label b.Mir.Block.label)
           original new_order)
    in
    fn.Mir.Func.blocks <- new_order;
    changed

let run_profiled (p : Mir.Program.t) tables =
  List.fold_left
    (fun acc (fn : Mir.Func.t) ->
      match Hashtbl.find_opt tables fn.Mir.Func.name with
      | Some counts -> run_func ~counts fn || acc
      | None -> acc)
    false p.Mir.Program.funcs
