(* Condition-code state: operands of the last [Cmp] on every path, when
   unique.  Killed by calls (the machine's cc register is shared with the
   callee, whose compares clobber it) and by redefinition of a compared
   register (the recorded operand would no longer name the compared
   value). *)
type cc = Cc_top | Cc_cmp of Mir.Operand.t * Mir.Operand.t

(* A fact holds one interval per slot of the function's
   [Mir.Reg_index]; registers the function never names read as 0.  An
   array is written only while it is private to the function building
   it: once it is a fact it is shared and never mutated. *)
type st = { regs : Iv.t array; cc : cc }
type state = Bot | St of st

type t = { index : Mir.Reg_index.t; facts : state Mir.Dataflow.result }

let zero = Iv.const 0

(* Registers never assigned on any path from the entry hold 0: the
   simulator zero-initialises register files. *)
let get index regs r =
  let k = Mir.Reg_index.slot index r in
  if k < 0 then zero else regs.(k)

let cc_equal a b =
  match (a, b) with
  | Cc_top, Cc_top -> true
  | Cc_cmp (a1, b1), Cc_cmp (a2, b2) ->
    Mir.Operand.equal a1 a2 && Mir.Operand.equal b1 b2
  | _ -> false

let merge_state f a b =
  match (a, b) with
  | Bot, x | x, Bot -> x
  | St sa, St sb ->
    let regs = Mir.Reg_index.merge f sa.regs sb.regs in
    let cc = if cc_equal sa.cc sb.cc then sa.cc else Cc_top in
    if regs == sa.regs && cc == sa.cc then a else St { regs; cc }

let join_state = merge_state Iv.join
let widen_state = merge_state Iv.widen

let equal_state a b =
  match (a, b) with
  | Bot, Bot -> true
  | St sa, St sb ->
    cc_equal sa.cc sb.cc
    && (sa.regs == sb.regs || Array.for_all2 Iv.equal sa.regs sb.regs)
  | _ -> false

let eval_op index regs = function
  | Mir.Operand.Imm c -> Iv.const c
  | Mir.Operand.Reg r -> get index regs r

let mentions r = function
  | Mir.Operand.Reg s -> Mir.Reg.equal r s
  | Mir.Operand.Imm _ -> false

let kill_cc r = function
  | Cc_cmp (a, b) when mentions r a || mentions r b -> Cc_top
  | cc -> cc

(* [regs] is private to the caller; a register the function does not
   name has no slot, so the write is dropped *)
let set index regs cc r v =
  let k = Mir.Reg_index.slot index r in
  if k >= 0 then regs.(k) <- v;
  kill_cc r cc

(* Execute one instruction in place on a private [regs]; returns the new
   condition-code state. *)
let exec index regs cc insn =
  let ev op = eval_op index regs op in
  let def r v = set index regs cc r v in
  match insn with
  | Mir.Insn.Mov (r, op) -> def r (ev op)
  | Mir.Insn.Unop (Mir.Insn.Neg, r, op) -> def r (Iv.neg (ev op))
  | Mir.Insn.Unop (Mir.Insn.Not, r, op) -> def r (Iv.logical_not (ev op))
  | Mir.Insn.Binop (op, r, a, b) ->
    let va = ev a and vb = ev b in
    let v =
      match op with
      | Mir.Insn.Add -> Iv.add va vb
      | Mir.Insn.Sub -> Iv.sub va vb
      | Mir.Insn.Mul -> Iv.mul va vb
      | Mir.Insn.Rem -> Iv.rem va vb
      | Mir.Insn.Div | Mir.Insn.And | Mir.Insn.Or | Mir.Insn.Xor
      | Mir.Insn.Shl | Mir.Insn.Shr -> (
        match (Iv.is_const va, Iv.is_const vb) with
        | Some x, Some y -> (
          try Iv.const (Mir.Insn.eval_binop op x y)
          with Division_by_zero -> Iv.bot)
        | _ -> Iv.top)
    in
    def r v
  | Mir.Insn.Load (r, _, _) -> def r Iv.top
  | Mir.Insn.Store _ -> cc
  | Mir.Insn.Cmp (a, b) -> Cc_cmp (a, b)
  | Mir.Insn.Call (dst, _, _) -> (
    match dst with Some r -> set index regs Cc_top r Iv.top | None -> Cc_top)
  | Mir.Insn.Nop | Mir.Insn.Profile_range _ | Mir.Insn.Profile_comb _ -> cc

(* the state after [insns] from [st]: one copy of the registers *)
let apply_insns index st insns =
  let regs = Array.copy st.regs in
  let cc = List.fold_left (exec index regs) st.cc insns in
  { regs; cc }

let transfer index b state =
  match (state, b.Mir.Block.insns) with
  | Bot, _ | St _, [] -> state
  | St st, insns -> St (apply_insns index st insns)

(* Values x with [exists y in b. x cond y], as an interval. *)
let sat cond b =
  match b with
  | Iv.Bot -> Iv.Bot
  | Iv.Iv (bl, bh) -> (
    match cond with
    | Mir.Cond.Eq -> b
    | Mir.Cond.Ne -> Iv.top
    | Mir.Cond.Lt | Mir.Cond.Le -> Iv.of_cond cond bh
    | Mir.Cond.Gt | Mir.Cond.Ge -> Iv.of_cond cond bl)

let refine_against cond a b =
  match cond with
  | Mir.Cond.Ne -> (
    (* A punctured line is not an interval, but a punctured endpoint
       still shrinks: this is what turns a != loop guard into a
       convergent induction-variable bound. *)
    match (Iv.is_const b, a) with
    | Some c, Iv.Iv (lo, hi) ->
      if lo = c && hi = c then Iv.Bot
      else if lo = c then Iv.make (lo + 1) hi
      else if hi = c then Iv.make lo (hi - 1)
      else a
    | _ -> a)
  | _ -> Iv.meet a (sat cond b)

(* [st] with register [r] narrowed to [v] (already met with its old
   interval); [st] itself when nothing narrows *)
let narrow index st r v =
  let k = Mir.Reg_index.slot index r in
  if k < 0 || Iv.equal st.regs.(k) v then st
  else begin
    let regs = Array.copy st.regs in
    regs.(k) <- v;
    { st with regs }
  end

(* Sharpen the compared registers knowing [a cond b] held. *)
let refine_cc index cond a_op b_op st =
  let iva = eval_op index st.regs a_op and ivb = eval_op index st.regs b_op in
  let iva' = refine_against cond iva ivb in
  let ivb' = refine_against (Mir.Cond.swap cond) ivb iva in
  if Iv.is_bot iva' || Iv.is_bot ivb' then Bot
  else
    let upd op v st =
      match op with
      | Mir.Operand.Reg r -> narrow index st r (Iv.meet (get index st.regs r) v)
      | Mir.Operand.Imm _ -> st
    in
    St (upd b_op ivb' (upd a_op iva' st))

let refine_edge index fn src dst st =
  match src.Mir.Block.term.Mir.Block.kind with
  | Mir.Block.Br (cond, taken, fall) ->
    (* both edges agree: direction tells nothing *)
    if String.equal taken fall then St st
    else (
      match st.cc with
      | Cc_cmp (a, b) ->
        refine_cc index
          (if String.equal dst taken then cond else Mir.Cond.negate cond)
          a b st
      | Cc_top -> St st)
  | Mir.Block.Jtab (r, tbl) ->
    let targets = Mir.Func.jtab fn tbl in
    let lo = ref max_int and hi = ref min_int in
    Array.iteri
      (fun i l ->
        if String.equal l dst then begin
          lo := Int.min !lo i;
          hi := Int.max !hi i
        end)
      targets;
    if !lo > !hi then St st (* dst not in the table: edge can't exist *)
    else
      let v = Iv.meet (get index st.regs r) (Iv.make !lo !hi) in
      if Iv.is_bot v then Bot else St (narrow index st r v)
  | Mir.Block.Switch (r, cases, default) ->
    if String.equal dst default then St st
    else
      let vals =
        List.filter_map
          (fun (v, l) -> if String.equal l dst then Some v else None)
          cases
      in
      (match vals with
      | [] -> St st
      | v0 :: _ ->
        let lo = List.fold_left Int.min v0 vals
        and hi = List.fold_left Int.max v0 vals in
        let v = Iv.meet (get index st.regs r) (Iv.make lo hi) in
        if Iv.is_bot v then Bot else St (narrow index st r v))
  | Mir.Block.Jmp _ | Mir.Block.Ret _ -> St st

(* Delay slots execute after the branch decision, so on the edge: after
   refinement (which talks about values at decision time), before the
   successor.  An annulled slot runs on the taken path only. *)
let apply_delay index src dst st =
  match src.Mir.Block.term.Mir.Block.delay with
  | None -> St st
  | Some i ->
    let run () = St (apply_insns index st [ i ]) in
    if not src.Mir.Block.term.Mir.Block.annul then run ()
    else (
      match src.Mir.Block.term.Mir.Block.kind with
      | Mir.Block.Br (_, taken, fall) when not (String.equal taken fall) ->
        if String.equal dst taken then run () else St st
      | _ -> join_state (run ()) (St st))

let edge index fn src dst state =
  match state with
  | Bot -> Bot
  | St st -> (
    match refine_edge index fn src dst st with
    | Bot -> Bot
    | St st -> apply_delay index src dst st)

let entry_state index fn =
  let regs = Array.make (Mir.Reg_index.size index) zero in
  List.iter
    (fun r -> regs.(Mir.Reg_index.slot index r) <- Iv.top)
    fn.Mir.Func.params;
  St { regs; cc = Cc_top }

let analyze fn =
  let index = Mir.Reg_index.of_func fn in
  let facts =
    Mir.Dataflow.solve
      {
        Mir.Dataflow.direction = Mir.Dataflow.Forward;
        boundary = entry_state index fn;
        bottom = Bot;
        join = join_state;
        equal = equal_state;
        transfer = transfer index;
        edge = Some (edge index fn);
        widen = Some widen_state;
        widen_after = 8;
      }
      fn
  in
  { index; facts }

let reachable t label =
  match Mir.Dataflow.fact_in t.facts label with Bot -> false | St _ -> true

let reg_in t label r =
  match Mir.Dataflow.fact_in t.facts label with
  | Bot -> Iv.Bot
  | St st -> get t.index st.regs r

let reg_before t b i r =
  match Mir.Dataflow.fact_in t.facts b.Mir.Block.label with
  | Bot -> Iv.Bot
  | St st ->
    let regs = Array.copy st.regs in
    let rec go cc k = function
      | insn :: rest when k < i -> go (exec t.index regs cc insn) (k + 1) rest
      | _ -> ()
    in
    go st.cc 0 b.Mir.Block.insns;
    get t.index regs r

let cc_at_term t b =
  match Mir.Dataflow.fact_out t.facts b.Mir.Block.label with
  | Bot -> None
  | St st -> (
    match st.cc with
    | Cc_top -> None
    | Cc_cmp (a, b) ->
      Some (eval_op t.index st.regs a, eval_op t.index st.regs b))

let branch_fate t b =
  match b.Mir.Block.term.Mir.Block.kind with
  | Mir.Block.Br (cond, _, _) -> (
    match Mir.Dataflow.fact_out t.facts b.Mir.Block.label with
    | Bot -> `Unreachable
    | St st -> (
      match st.cc with
      | Cc_top -> `Unknown
      | Cc_cmp (a_op, b_op) ->
        let a = eval_op t.index st.regs a_op
        and bv = eval_op t.index st.regs b_op in
        if Iv.always cond a bv then `Always_taken
        else if Iv.never cond a bv then `Never_taken
        else `Unknown))
  | _ -> `Unknown

let iterations t = Mir.Dataflow.iterations t.facts
