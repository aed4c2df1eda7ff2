type plan = {
  table_lo : int;
  table_hi : int;
  targets : string array;
}

let coalescible fn (seq : Detect.t) ~max_span =
  let items = seq.Detect.items in
  let pure = List.for_all (fun (it : Detect.item) -> it.Detect.sides = []) items in
  let bounded =
    List.for_all
      (fun (it : Detect.item) ->
        Range.lo it.Detect.range > Range.min_value
        && Range.hi it.Detect.range < Range.max_value)
      items
  in
  (* the table leaves the bounds compare's codes behind, so no target
     may read the sequence's, also through a jump forwarder *)
  let targets_ok =
    let ccl = Analysis.Cc_live.analyze fn in
    List.for_all
      (fun target -> not (Analysis.Cc_live.live_in ccl target))
      (seq.Detect.default_target
      :: List.map (fun (it : Detect.item) -> it.Detect.target) items)
  in
  if not (pure && bounded && targets_ok && items <> []) then None
  else begin
    let lo =
      List.fold_left
        (fun acc (it : Detect.item) -> min acc (Range.lo it.Detect.range))
        max_int items
    in
    let hi =
      List.fold_left
        (fun acc (it : Detect.item) -> max acc (Range.hi it.Detect.range))
        min_int items
    in
    let span = hi - lo + 1 in
    if span > max_span then None
    else begin
      let targets =
        Array.init span (fun i ->
            let v = lo + i in
            match
              List.find_opt
                (fun (it : Detect.item) -> Range.mem v it.Detect.range)
                items
            with
            | Some it -> it.Detect.target
            | None -> seq.Detect.default_target)
      in
      Some { table_lo = lo; table_hi = hi; targets }
    end
  end

let indirect_cost_per_execution (m : Sim.Cycle_model.params) =
  6 + m.Sim.Cycle_model.indirect_penalty

let decide ~machine ~total ~reorder_cost plan =
  ignore plan;
  total * indirect_cost_per_execution machine < reorder_cost

let apply fn (seq : Detect.t) plan =
  let head = Mir.Func.find_block fn seq.Detect.head in
  (* detection guarantees nothing after the sequence compare redefines
     the variable, so the bounds compare can go at the end *)
  ignore (Apply.strip_last_cmp head);
  let var = Mir.Operand.Reg seq.Detect.var in
  let tid = Mir.Func.add_jtable fn plan.targets in
  let idx = Mir.Func.fresh_reg fn in
  let hi_label = Mir.Func.fresh_label fn in
  let jump_label = Mir.Func.fresh_label fn in
  head.Mir.Block.insns <-
    head.Mir.Block.insns @ [ Mir.Insn.Cmp (var, Mir.Operand.Imm plan.table_lo) ];
  head.Mir.Block.term <-
    Mir.Block.term (Mir.Block.Br (Mir.Cond.Lt, seq.Detect.default_target, hi_label));
  Mir.Func.insert_blocks_after fn seq.Detect.head
    [
      Mir.Block.make ~label:hi_label
        [ Mir.Insn.Cmp (var, Mir.Operand.Imm plan.table_hi) ]
        (Mir.Block.Br (Mir.Cond.Gt, seq.Detect.default_target, jump_label));
      Mir.Block.make ~label:jump_label
        [ Mir.Insn.Binop (Mir.Insn.Sub, idx, var, Mir.Operand.Imm plan.table_lo) ]
        (Mir.Block.Jtab (idx, tid));
    ]
