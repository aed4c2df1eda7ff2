(** Profiling support for reorderable sequences (Section 5).

    All instrumentation for a sequence lives at its head: one
    {!Mir.Insn.Profile_range} pseudo instruction placed just before the
    head's compare records which range — explicit or default — the branch
    variable falls in each time the sequence is entered from the top.
    The pseudo instruction is free in the simulator and removed by
    {!strip} before any measurement run. *)

type counts_view = {
  item_counts : int array;          (** per explicit item, original order *)
  default_counts : (Range.t * int) list;  (** per default range, by lo *)
  total : int;                      (** executions of the sequence head *)
}

val instrument : Mir.Program.t -> Detect.t list -> Sim.Profile.t
(** Registers every sequence's range table and inserts the profiling
    pseudo instruction at each head.  The program is modified in place.
    A table's outermost rows reach [min_int] and [max_int], so a probe
    records every value the simulator can hold. *)

val counts : Sim.Profile.t -> Detect.t -> counts_view
(** Read back training counts after a profiling run. *)

val of_static : ?scale:int -> Mir.Program.t -> Detect.t list -> Sim.Profile.t
(** A profile table synthesized from the CFG alone: every sequence's
    range table is registered (no probes are inserted — there is no
    training run to feed them) and filled with predicted counts from
    {!Analysis.Freq} block frequencies and {!Analysis.Heur} branch
    probabilities.  Each head's predicted frequency (clamped) times
    [scale] (default 1000) becomes the sequence's execution budget,
    split over the rows by the normalized geometric mean of two
    independent static signals: a probability-mass walk of the range
    conditions under the heuristic branch probabilities, and a uniform
    prior over the byte-plus-EOF variable domain weighting each row by
    how much of that domain it covers.  The counts are exactly what
    {!counts} / {!select_input} expect, so nothing downstream of
    training changes. *)

val add_static : ?scale:int -> Mir.Program.t -> Detect.t list -> Sim.Profile.t -> unit
(** Fill predicted counts into every {e registered but unexercised}
    sequence of an existing table (one whose [executions] is 0) —
    measured counts always win.  This is the [--profile=both] and
    serve-cold-start path: train where data exists, predict where it
    does not. *)

val strip : Mir.Program.t -> unit
(** Remove all profiling pseudo instructions. *)

val select_input : Detect.t -> counts_view -> Select.input_item list
(** Assemble the selection problem: explicit items carry payloads
    [0 .. n-1] (their original 0-based position); default ranges carry
    payloads [n, n+1, ...] and target the sequence's default label.
    Costs come from {!Range_cond.cost}. *)
