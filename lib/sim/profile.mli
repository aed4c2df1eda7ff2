(** Profile-counter runtime.

    The reordering pass inserts {!Mir.Insn.Profile_range} /
    {!Mir.Insn.Profile_comb} pseudo instructions at sequence heads and
    registers a descriptor for each sequence id here; the machine updates
    the counters as the instrumented program runs on training input
    (paper Section 5).  The descriptors are MIR-level so that the
    simulator does not depend on the reordering library. *)

type range_seq = {
  bounds : (int * int) array;
      (** nonoverlapping [lo, hi] ranges, sorted by [lo], jointly covering
          every representable value *)
  counts : int array;  (** one counter per range *)
  mutable executions : int;  (** times the sequence head was reached *)
}

type comb_seq = {
  conds : (Mir.Cond.t * Mir.Operand.t * Mir.Operand.t) array;
      (** branch conditions, in original order; evaluated against the
          current register file *)
  comb_counts : int array;  (** 2^n counters indexed by outcome bitmask
                                (bit i set = condition i true) *)
  mutable comb_executions : int;
}

type t

val make : unit -> t

val register_range_seq : t -> int -> (int * int) array -> range_seq
(** [register_range_seq t id bounds] registers (or replaces) range
    sequence [id].  Range sequences are held in an array indexed by id,
    so ids should be dense from 0, as sequence detection numbers them.
    Raises [Invalid_argument] on a negative id. *)

val register_comb_seq :
  t -> int -> (Mir.Cond.t * Mir.Operand.t * Mir.Operand.t) array -> comb_seq

val find_range_seq : t -> int -> range_seq option
val find_comb_seq : t -> int -> comb_seq option

val record_range : t -> int -> int -> unit
(** [record_range t id v]: bump the counter of the range containing [v].
    Raises [Invalid_argument] on an unregistered id or uncovered value. *)

val record_comb : t -> int -> read_reg:(Mir.Reg.t -> int) -> unit
(** Evaluate all conditions of sequence [id] and bump the combination
    counter. *)

val copy_shape : t -> t
(** [copy_shape t] is a fresh table with the same registered sequence
    descriptors and all counters zeroed — a per-domain {e shard} of
    [t].  Descriptor arrays (bounds, conditions) are shared; counter
    arrays are private. *)

val clear : t -> unit
(** Zero every counter of [t]; its descriptors stay registered. *)

val absorb : into:t -> t -> int
(** [absorb ~into shard] adds every counter of [shard] into the
    matching sequence of [into] and zeroes [shard], so repeated merges
    never double-count.  Sequences unknown to [into] are ignored.
    Returns the number of counter increments moved.  Not atomic: the
    caller must ensure nobody records into [shard] during the merge. *)

val total_executions : t -> int
(** Sum of [executions] over every registered sequence — a cheap
    "how much profile have we accumulated" gauge. *)

val counters :
  t -> (int * int array * int) list * (int * int array * int) list
(** [(ranges, combs)] — every registered sequence's raw counter state as
    [(id, counts, executions)], sorted by id, counter arrays copied.
    The durable-state layer persists exactly this: descriptors (bounds,
    conditions) are redundant with the program the ids were detected on
    and are rebuilt by re-detection, not stored. *)

val set_counters :
  t ->
  ranges:(int * int array * int) list ->
  combs:(int * int array * int) list ->
  int
(** Overwrite the counters of every sequence whose id and counter-array
    length match (others — e.g. from an incompatible detection — are
    silently skipped).  Returns how many sequences were applied.  The
    inverse of {!counters} on a table with the same registered shape. *)
