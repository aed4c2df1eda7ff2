(* lattice value per register *)
type value = Const of int | Varying

(* A block's in-state: [Unreached] until some path from the entry
   reaches it, then one value per slot of the function's
   [Mir.Reg_index].  Registers start Varying, parameters and
   never-assigned registers alike: the machine zeroes registers, but
   staying conservative keeps uninitialised reads unfolded.  As in
   [Analysis.Intervals], an array is never written once it is a fact. *)
type state = Unreached | Reached of value array

(* the left operand itself when nothing moves, for [Reg_index.merge] *)
let meet_value a b =
  match (a, b) with
  | Const x, Const y when x = y -> a
  | Varying, _ -> a
  | _ -> Varying

let value_equal a b =
  match (a, b) with
  | Const x, Const y -> x = y
  | Varying, Varying -> true
  | _ -> false

let meet_state a b =
  match (a, b) with
  | Unreached, x | x, Unreached -> x
  | Reached va, Reached vb ->
    let v = Mir.Reg_index.merge meet_value va vb in
    if v == va then a else Reached v

let equal_state a b =
  match (a, b) with
  | Unreached, Unreached -> true
  | Reached va, Reached vb -> va == vb || Array.for_all2 value_equal va vb
  | _ -> false

let lookup index vals r =
  let k = Mir.Reg_index.slot index r in
  if k < 0 then Varying else vals.(k)

let op_value index vals = function
  | Mir.Operand.Imm n -> Const n
  | Mir.Operand.Reg r -> lookup index vals r

(* execute one instruction in place on a private [vals] *)
let exec index vals insn =
  let set r v = vals.(Mir.Reg_index.slot index r) <- v in
  match insn with
  | Mir.Insn.Mov (r, o) -> set r (op_value index vals o)
  | Mir.Insn.Unop (u, r, o) -> (
    match op_value index vals o with
    | Const n -> set r (Const (Mir.Insn.eval_unop u n))
    | Varying -> set r Varying)
  | Mir.Insn.Binop (b, r, x, y) -> (
    match (op_value index vals x, op_value index vals y, b) with
    | Const _, Const 0, (Mir.Insn.Div | Mir.Insn.Rem) -> set r Varying
    | Const a, Const c, _ -> set r (Const (Mir.Insn.eval_binop b a c))
    | _ -> set r Varying)
  | Mir.Insn.Load (r, _, _) | Mir.Insn.Call (Some r, _, _) -> set r Varying
  | Mir.Insn.Store _ | Mir.Insn.Cmp _ | Mir.Insn.Call (None, _, _)
  | Mir.Insn.Nop | Mir.Insn.Profile_range _ | Mir.Insn.Profile_comb _ ->
    ()

let transfer index (b : Mir.Block.t) state =
  match (state, b.Mir.Block.insns, b.Mir.Block.term.Mir.Block.delay) with
  | Unreached, _, _ | Reached _, [], None -> state
  | Reached vals, insns, delay ->
    let vals = Array.copy vals in
    List.iter (exec index vals) insns;
    Option.iter (exec index vals) delay;
    Reached vals

(* Forward, bottom = unreached, no widening: the lattice has height 2
   per register, so the engine's worklist order reaches the one maximal
   fixpoint. *)
let solve index fn =
  Mir.Dataflow.solve
    {
      Mir.Dataflow.direction = Mir.Dataflow.Forward;
      boundary = Reached (Array.make (Mir.Reg_index.size index) Varying);
      bottom = Unreached;
      join = meet_state;
      equal = equal_state;
      transfer = transfer index;
      edge = None;
      widen = None;
      widen_after = 0;
    }
    fn

let rewrite_block index in_vals (b : Mir.Block.t) =
  let changed = ref false in
  let vals = Array.copy in_vals in
  let subst op =
    match op with
    | Mir.Operand.Reg r -> (
      match lookup index vals r with
      | Const n ->
        changed := true;
        Mir.Operand.Imm n
      | Varying -> op)
    | Mir.Operand.Imm _ -> op
  in
  let rewrite insn =
    let insn' =
      match insn with
      | Mir.Insn.Mov (r, o) -> Mir.Insn.Mov (r, subst o)
      | Mir.Insn.Unop (u, r, o) -> Mir.Insn.Unop (u, r, subst o)
      | Mir.Insn.Binop (bop, r, x, y) -> Mir.Insn.Binop (bop, r, subst x, subst y)
      | Mir.Insn.Load (r, sym, idx) -> Mir.Insn.Load (r, sym, subst idx)
      | Mir.Insn.Store (sym, idx, v) -> Mir.Insn.Store (sym, subst idx, subst v)
      | Mir.Insn.Call (dst, f, args) -> Mir.Insn.Call (dst, f, List.map subst args)
      (* compares keep registers for the sequence detector; constants
         flow into them via the local pass when profitable *)
      | (Mir.Insn.Cmp _ | Mir.Insn.Nop | Mir.Insn.Profile_range _
        | Mir.Insn.Profile_comb _) as i ->
        i
    in
    exec index vals insn;
    insn'
  in
  b.Mir.Block.insns <- List.map rewrite b.Mir.Block.insns;
  !changed

let run_func (fn : Mir.Func.t) =
  let index = Mir.Reg_index.of_func fn in
  let facts = solve index fn in
  List.fold_left
    (fun acc (b : Mir.Block.t) ->
      match Mir.Dataflow.fact_in facts b.Mir.Block.label with
      | Reached vals -> rewrite_block index vals b || acc
      | Unreached -> acc)
    false fn.Mir.Func.blocks

let run (p : Mir.Program.t) =
  List.fold_left (fun acc fn -> run_func fn || acc) false p.Mir.Program.funcs
