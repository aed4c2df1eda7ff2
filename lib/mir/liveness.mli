(** Backward liveness analysis over a function's CFG.

    Used by dead-code elimination, the delay-slot filler, and the
    reordering pass's side-effect reasoning.  Delay-slot instructions are
    treated as part of the terminator: their uses count, and their defs are
    visible to all successors. *)

type t = Reg.Set.t Dataflow.result
(** Per-block live sets; {!Dataflow.iterations} reads the solver's
    work. *)

val compute : Func.t -> t

val live_in : t -> string -> Reg.Set.t
(** Registers live on entry to the labelled block. *)

val live_out : t -> string -> Reg.Set.t
(** Registers live on exit from the labelled block (before the
    terminator's uses are added). *)

val term_uses : Block.term -> Reg.t list
(** Registers read by a terminator (switch/jtab scrutinee, return value,
    delay-slot uses). *)
