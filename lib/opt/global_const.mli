(** Global (whole-function) constant propagation.

    A forward must-dataflow on {!Mir.Dataflow} over the lattice
    [constant c > varying] per register, with meet over predecessors;
    a block no path from the entry reaches has no state and is left
    alone.  Uses whose register is a known constant at
    that program point are rewritten to immediates, which feeds the
    local folder, branch-constant folding and dead-code elimination.
    Compares keep their register operands (see {!Copy_prop}); only
    arithmetic, moves, addresses and call arguments are rewritten. *)

val run_func : Mir.Func.t -> bool
val run : Mir.Program.t -> bool
