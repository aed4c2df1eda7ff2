(** Interval (value-range) analysis over a function's registers.

    A forward dataflow on {!Mir.Dataflow} whose facts give every
    register an {!Iv.t} — an array over the function's
    {!Mir.Reg_index}, which the result carries — with two features the
    rest of the tree leans on:

    - {b branch-edge refinement}: the analysis tracks the operands of
      the last executed [Cmp] (the condition-code state, killed by calls
      — the machine's cc register is shared with callees — and by
      redefinitions of a compared register), and sharpens the compared
      registers' intervals separately along the taken and not-taken
      edges of every branch.  Jump-table edges bound the index register;
      switch edges narrow the scrutinee to the hull of the case values.
      An edge whose refined fact is empty is {e infeasible}, and a block
      all of whose incoming edges are infeasible keeps the [Bot] state —
      statically unreachable even though the CFG has an edge into it;
    - {b widening}: after eight visits to a block the input interval's
      moving bounds jump to the infinities, so loops with induction
      variables converge.

    Registers never assigned on a path hold 0 (the simulator
    zero-initialises register files); parameters are unknown. *)

type t

val analyze : Mir.Func.t -> t

val reachable : t -> string -> bool
(** The labelled block's entry fact is non-empty: some feasible path
    from the entry reaches it. *)

val reg_in : t -> string -> Mir.Reg.t -> Iv.t
(** Interval of a register at entry to the labelled block ([Bot] when
    the block is unreachable). *)

val reg_before : t -> Mir.Block.t -> int -> Mir.Reg.t -> Iv.t
(** [reg_before t b i r]: interval of [r] immediately before the [i]-th
    instruction of [b] (so [reg_before t b 0 r = reg_in t b.label r]).
    [i] may be [List.length b.insns], meaning "at the terminator".
    [b] is a block of the analysed function. *)

val cc_at_term : t -> Mir.Block.t -> (Iv.t * Iv.t) option
(** Intervals of the condition-code operands live at the block's
    terminator, when the last compare on every path through the block
    is known ([None] after calls, or when the block is unreachable). *)

val branch_fate :
  t -> Mir.Block.t -> [ `Always_taken | `Never_taken | `Unknown | `Unreachable ]
(** Decide a [Br] terminator from the facts: [`Always_taken] /
    [`Never_taken] when the interval facts prove the branch one-way.
    [`Unknown] for non-branch terminators. *)

val iterations : t -> int
(** Engine iterations (a termination probe for tests). *)
