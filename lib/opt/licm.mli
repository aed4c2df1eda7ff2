(** Loop-invariant code motion.

    Hoists pure register computations (and, when the loop is free of
    stores and calls, loads) whose operands are defined outside the loop
    into a preheader.  To stay conservative without a full reaching-
    definitions analysis, an instruction is hoisted only when:

    - it is pure ([Mov]/[Unop]/non-trapping [Binop], or [Load] in a
      store/call-free loop);
    - every register it reads has no definition anywhere in the loop
      (so the value is the same on every iteration);
    - its destination has exactly one definition in the loop (itself),
      is not live into the loop header from outside (the hoisted
      definition would clobber a value used on the zero-trip path
      otherwise: since hoisting makes it execute even when the loop
      body would not), and is not defined by a delay slot.

    Because lowering gives every temporary a fresh register, these
    conditions fire on the redundant recomputations inside hot loops
    (e.g. address or bound computations), which is what vpo's code
    motion bought its measured baselines. *)

val preheader : Mir.Func.t -> Analysis.Loops.loop -> string
(** The unique block outside the loop that falls into the header,
    creating one if needed (all non-back-edge predecessors of the header
    are retargeted to the new block).  Returns its label. *)

val run_func : Mir.Func.t -> int
(** Number of instructions hoisted. *)

val run : Mir.Program.t -> int
