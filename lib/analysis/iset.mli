(** Finite unions of integer intervals.

    The exact counterpart of {!Iv}: where an interval over-approximates
    (a punctured line, a union of arms), an interval {e set} is precise.
    Used by the lint arm analysis to track exactly which values survive
    a chain of range tests, and by the redundant-comparison eliminator
    as the proof obligation that a rewritten compare/branch pair decides
    the same set of values as the pair it replaces.

    Representation: sorted, disjoint, non-adjacent inclusive intervals;
    [min_int]/[max_int] act as -oo/+oo. *)

type t = (int * int) list

val empty : t
val full : t
val of_interval : int -> int -> t
val single : int -> t
val of_iv : Iv.t -> t

val is_empty : t -> bool
val equal : t -> t -> bool
val mem : int -> t -> bool

val union : t -> t -> t
val inter : t -> t -> t
val diff : t -> t -> t
val subset : t -> t -> bool

val of_cond : Mir.Cond.t -> int -> t
(** Values [v] with [v cond c] — exact, including [Ne]. *)

val as_interval : t -> (int * int) option
(** [Some (lo, hi)] when the set is one contiguous interval. *)


val pp : Format.formatter -> t -> unit
val show : t -> string
