let fixpoint_func fn =
  let continue_ = ref true in
  let rounds = ref 0 in
  while !continue_ && !rounds < 50 do
    incr rounds;
    let c1 = Branch_chain.run_func fn in
    let c2 = Unreachable.run_func fn in
    let c3 = Copy_prop.run_func fn in
    let c4 = Cse.run_func fn in
    let c5 = Global_const.run_func fn in
    let c6 = Dead_code.run_func fn in
    continue_ := c1 || c2 || c3 || c4 || c5 || c6
  done

let run_func fn =
  Delay_slot.strip_func fn;
  fixpoint_func fn;
  (* loop-invariant code motion, then clean up the moves it leaves *)
  if Licm.run_func fn > 0 then fixpoint_func fn;
  ignore (Reposition.run_func fn)

let run (p : Mir.Program.t) = List.iter run_func p.Mir.Program.funcs

let finalize ?(steal_delay_slots = true) (p : Mir.Program.t) =
  run p;
  Delay_slot.run ~steal:steal_delay_slots p
