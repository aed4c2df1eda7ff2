(** The conventional-optimization pipeline ("all of vpo's conventional
    optimizations", paper Section 9), applied to a fixpoint:

    branch chaining -> unreachable-code removal -> copy propagation ->
    common-subexpression elimination -> global constant propagation
    ({!Global_const}) -> dead-code elimination, then loop-invariant code
    motion and code repositioning.

    {!finalize} additionally fills delay slots; it must run last (the
    paper applies reordering before delay slots are filled). *)

val run : Mir.Program.t -> unit
val run_func : Mir.Func.t -> unit

val finalize : ?steal_delay_slots:bool -> Mir.Program.t -> int
(** [run] + delay-slot filling; returns the number of slots filled.
    [steal_delay_slots] (default true) enables fill-from-successor. *)
