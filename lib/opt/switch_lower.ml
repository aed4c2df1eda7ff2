type strategy =
  | Indirect
  | Binary_search
  | Linear

type heuristic_set = {
  hs_name : string;
  choose : ncases:int -> span:int -> strategy;
}

let dense_enough ~ncases ~span = span <= 3 * ncases

let set_i =
  {
    hs_name = "I";
    choose =
      (fun ~ncases ~span ->
        if ncases >= 4 && dense_enough ~ncases ~span then Indirect
        else if ncases >= 8 then Binary_search
        else Linear);
  }

let set_ii =
  {
    hs_name = "II";
    choose =
      (fun ~ncases ~span ->
        if ncases >= 16 && dense_enough ~ncases ~span then Indirect
        else if ncases >= 8 then Binary_search
        else Linear);
  }

let set_iii = { hs_name = "III"; choose = (fun ~ncases:_ ~span:_ -> Linear) }
let all_sets = [ set_i; set_ii; set_iii ]

(* ------------------------------------------------------------------ *)

let rop r = Mir.Operand.Reg r
let imm n = Mir.Operand.Imm n

(* Lower one switch.  [b] keeps its body; its terminator is replaced and
   [new_blocks] are returned for splicing right after [b] in the layout. *)
let lower_one fn (b : Mir.Block.t) r cases default strategy =
  let new_blocks = ref [] in
  let emit label insns kind =
    new_blocks := Mir.Block.make ~label insns kind :: !new_blocks
  in
  (match strategy, cases with
  | _, [] ->
    b.Mir.Block.term <- Mir.Block.term (Mir.Block.Jmp default)
  | Linear, (c0, t0) :: rest ->
    (* chain of equality tests in source order; the switch block holds the
       first test *)
    b.Mir.Block.insns <- b.Mir.Block.insns @ [ Mir.Insn.Cmp (rop r, imm c0) ];
    let rec chain prev_set_term = function
      | [] -> prev_set_term default
      | (c, t) :: rest ->
        let label = Mir.Func.fresh_label fn in
        prev_set_term label;
        let block =
          Mir.Block.make ~label
            [ Mir.Insn.Cmp (rop r, imm c) ]
            (Mir.Block.Br (Mir.Cond.Eq, t, "<patch>"))
        in
        new_blocks := block :: !new_blocks;
        chain
          (fun next ->
            block.Mir.Block.term <-
              Mir.Block.term (Mir.Block.Br (Mir.Cond.Eq, t, next)))
          rest
    in
    chain
      (fun next ->
        b.Mir.Block.term <-
          Mir.Block.term (Mir.Block.Br (Mir.Cond.Eq, t0, next)))
      rest
  | Binary_search, _ ->
    let sorted =
      List.sort (fun (a, _) (c, _) -> Int.compare a c) cases |> Array.of_list
    in
    (* each tree node is an eq block (cmp + beq target) falling into an lt
       block (no cmp: the condition codes are still set) that branches to
       the subtrees; the root's eq test lives in the switch block itself *)
    let node lo hi ~emit_eq =
      let rec emit_tree lo hi =
        if lo > hi then default
        else begin
          let mid = (lo + hi) / 2 in
          let c, target = sorted.(mid) in
          let eq_label = Mir.Func.fresh_label fn in
          let lt_label = Mir.Func.fresh_label fn in
          let left = emit_tree lo (mid - 1) in
          let right = emit_tree (mid + 1) hi in
          emit lt_label [] (Mir.Block.Br (Mir.Cond.Lt, left, right));
          emit eq_label
            [ Mir.Insn.Cmp (rop r, imm c) ]
            (Mir.Block.Br (Mir.Cond.Eq, target, lt_label));
          eq_label
        end
      in
      let mid = (lo + hi) / 2 in
      let c, target = sorted.(mid) in
      let lt_label = Mir.Func.fresh_label fn in
      let left = emit_tree lo (mid - 1) in
      let right = emit_tree (mid + 1) hi in
      emit lt_label [] (Mir.Block.Br (Mir.Cond.Lt, left, right));
      emit_eq c target lt_label
    in
    node 0
      (Array.length sorted - 1)
      ~emit_eq:(fun c target lt_label ->
        b.Mir.Block.insns <-
          b.Mir.Block.insns @ [ Mir.Insn.Cmp (rop r, imm c) ];
        b.Mir.Block.term <-
          Mir.Block.term (Mir.Block.Br (Mir.Cond.Eq, target, lt_label)))
  | Indirect, _ ->
    let sorted = List.sort (fun (a, _) (c, _) -> Int.compare a c) cases in
    let lo = fst (List.hd sorted) in
    let hi = fst (List.hd (List.rev sorted)) in
    let table = Array.make (hi - lo + 1) default in
    List.iter (fun (c, t) -> table.(c - lo) <- t) sorted;
    let tbl_id = Mir.Func.add_jtable fn table in
    let idx = Mir.Func.fresh_reg fn in
    let hi_label = Mir.Func.fresh_label fn in
    let jump_label = Mir.Func.fresh_label fn in
    (* bounds check low, bounds check high, index, indirect jump *)
    b.Mir.Block.insns <- b.Mir.Block.insns @ [ Mir.Insn.Cmp (rop r, imm lo) ];
    b.Mir.Block.term <-
      Mir.Block.term (Mir.Block.Br (Mir.Cond.Lt, default, hi_label));
    emit hi_label
      [ Mir.Insn.Cmp (rop r, imm hi) ]
      (Mir.Block.Br (Mir.Cond.Gt, default, jump_label));
    emit jump_label
      [ Mir.Insn.Binop (Mir.Insn.Sub, idx, rop r, imm lo) ]
      (Mir.Block.Jtab (idx, tbl_id)));
  List.rev !new_blocks

let lower_func hs (fn : Mir.Func.t) =
  let rec go acc = function
    | [] -> List.rev acc
    | (b : Mir.Block.t) :: rest -> (
      match b.Mir.Block.term.kind with
      | Mir.Block.Switch (r, cases, default) ->
        let strategy =
          match cases with
          | [] -> Linear
          | (c0, _) :: _ ->
            let values = List.map fst cases in
            let lo = List.fold_left min c0 values in
            let hi = List.fold_left max c0 values in
            hs.choose ~ncases:(List.length cases) ~span:(hi - lo + 1)
        in
        let extra = lower_one fn b r cases default strategy in
        go (List.rev_append (b :: extra) acc) rest
      | Mir.Block.Br _ | Mir.Block.Jmp _ | Mir.Block.Jtab _ | Mir.Block.Ret _ ->
        go (b :: acc) rest)
  in
  fn.Mir.Func.blocks <- go [] fn.Mir.Func.blocks

let lower_program hs (p : Mir.Program.t) =
  List.iter (lower_func hs) p.Mir.Program.funcs
