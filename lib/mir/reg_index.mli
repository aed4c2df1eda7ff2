(** Dense slots for the registers one function names.

    Dataflow facts over registers are arrays indexed by slot, sized by
    the number of distinct registers {!Func.iter_regs} reports, not by
    the largest register id: validation admits ids up to
    [Sys.max_array_length], so a function naming [r0] and [r50000000]
    gets two slots.  Slots follow register order, and {!slot}
    binary-searches the sorted ids.  An index is a plain
    value built per function; analyses carry it in their results, so
    two domains analysing different functions share nothing. *)

type t

val of_func : Func.t -> t

val size : t -> int
(** Number of distinct registers, i.e. of slots. *)

val slot : t -> Reg.t -> int
(** Slot of a register in [0, size); [-1] when the function does not
    name it. *)

val merge : ('a -> 'a -> 'a) -> 'a array -> 'a array -> 'a array
(** [merge f a b] applies [f] slotwise to two facts of one index.  When
    [f] returns every slot of [a] itself ([==]), the result is [a]
    itself, so a join or widening that moves nothing allocates nothing
    and is recognised by [==]; otherwise it is a fresh array. *)
