(** (m, n) branch predictors.

    An [(m, n)] predictor keeps [entries] n-bit saturating counters indexed
    by the branch site number XORed with m bits of global branch history,
    as in the paper's Tables 5 and 6 ((0,1) and (0,2) predictors with
    32..2048 entries; the SPARC Ultra 1 uses a (0,2) predictor with 2048
    entries). *)

type t

val make : history_bits:int -> counter_bits:int -> entries:int -> t
(** [entries] must be a power of two.  Counters start in the weakly
    not-taken state. *)

val access : t -> site:int -> taken:bool -> unit
(** Record one executed conditional branch: predict, compare with the
    outcome, update the counter and history. *)

val lookups : t -> int
val mispredicts : t -> int
val reset : t -> unit
val describe : t -> string
(** e.g. ["(0,2)x2048"]. *)

(** {2 Banks}

    A bank is a prebuilt array of predictors keyed by their
    [(history_bits, counter_bits, entries)] configuration, fed every
    branch event through an event buffer of its own.  {!bank_access}
    appends the packed event and, when the buffer holds 8192 events,
    folds them one table size at a time: a [(0,1,E)] predictor and a
    [(0,2,E)] partner fold together in one pass over the events, any
    other predictor alone.  Each predictor folds its own stream in
    order, so its final table, history and counts equal those of
    {!access} called event by event, and the sweep keeps one or two
    tables hot in cache instead of touching all of them per event.

    Every read ({!bank_mispredicts}, {!bank_lookups}) flushes the
    pending events first, and {!bank_reset} discards them.  So no read
    can tell a bank from one fed event by event, including after a run
    stopped mid-stream by a trap or fuel exhaustion.  A read is
    therefore also a write: a bank shared between domains needs one
    lock around its pushes and its reads alike. *)

type bank

val bank : (int * int * int) list -> bank
(** [bank keys] makes one fresh predictor per [(m, n, entries)] key. *)

val bank_access : bank -> site:int -> taken:bool -> unit
(** Record one branch outcome for every predictor in the bank (folded
    when the buffer fills or at the next read).  All three execution
    engines feed a [Sink_bank] through this. *)

val bank_reset : bank -> unit
(** Restore every predictor to its initial state and discard the
    pending events. *)

val bank_size : bank -> int

val bank_mispredicts : bank -> ((int * int * int) * int) list
(** Per-key mispredict counts, in the key order given to {!bank}. *)

val bank_lookups : bank -> ((int * int * int) * int) list

(** {2 Sinks}

    The one channel through which branch events leave an execution
    engine: every engine takes a [?sink] and delivers each executed
    conditional branch, in execution order, as a stable site number
    and its outcome. *)

type sink =
  | Sink_none              (** discard branch events *)
  | Sink_bank of bank      (** drive a predictor bank (allocation-free) *)
  | Sink_fun of (site:int -> taken:bool -> unit)
      (** call a closure per event (traces, layout counts, tests) *)

val sink_event : sink -> site:int -> taken:bool -> unit
(** Deliver one event ({!bank_access} for [Sink_bank]). *)
