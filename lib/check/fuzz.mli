(** Fuzzing orchestrator: generate → pipeline → verify → differential.

    Each case draws a {!Gen.spec}, builds the program, lowers switches
    under the spec's heuristic set, trains on the spec's training input,
    runs {!Reorder.Pass.run}, certifies the rewrite with {!Verify}, and
    differentially executes the original against the reordered program
    under the requested {!Sim.Machine} backends — comparing output and
    exit code between versions, and additionally counters, branch-event
    streams and block traces between backends of the same version.

    Every non-inject case also cross-checks {!Analysis.Lint} against the
    reference interpreter: diagnostics are proved from interval facts, so
    an execution contradicting one (entering an "unreachable" block,
    taking a "never taken" branch, …) is a lint false positive and fails
    the case.

    Failures are minimized with {!Gen.shrink_spec} before being
    reported.  With [inject] set, a "wrong default target" bug is
    planted into every reordered result and the roles flip: the verifier
    {b must} reject each planted bug, and a case where it does not is a
    failure — this guards against a vacuously-true verifier.  Cases
    where nothing was reordered have nothing to plant and are skipped;
    [bromc fuzz --inject] additionally fails a run where {b no} case
    could be injected (wholly vacuous). *)

type failure = {
  f_case : int;       (** 0-based case index *)
  f_spec : Gen.spec;  (** spec as generated *)
  f_shrunk : Gen.spec;  (** minimized spec still exhibiting the failure *)
  f_errors : string list;
}

type stats = {
  st_cases : int;
  st_reordered : int;   (** sequences reordered across all cases *)
  st_coalesced : int;
  st_unchanged : int;
  st_pieces : int;      (** partition pieces certified by {!Verify} *)
  st_injected : int;    (** planted bugs (inject mode) *)
  st_caught : int;      (** planted bugs the verifier rejected *)
  st_counterexample_blocks : int option;
      (** inject mode: blocks of the enclosing function in the smallest
          shrunk caught case *)
  st_lint_diags : int;
      (** lint verdicts cross-checked against reference block traces: a
          statically-unreachable block appearing in a trace, or a decided
          branch observed going the other way, fails the case *)
  st_form_counts : (string * int) list;
      (** occurrences of each range-condition form across the corpus *)
  st_failures : failure list;
}

val ok : stats -> bool

val default_backends : Sim.Machine.backend list
(** [[`Reference; `Compiled]]. *)

val all_backends : unit -> Sim.Machine.backend list
(** {!default_backends} plus [`Native] when {!Sim.Native.available};
    what [bromc fuzz --native] and the three-way differential tests
    use. *)

val pp_stats : Format.formatter -> stats -> unit

val pp_failure : Format.formatter -> failure -> unit
(** The shrunk counterexample, its errors, and the full spec. *)

(** {2 Single-case replay}

    The per-case machinery, exposed for the repro corpus
    ([Check.Corpus]): minting a repro shrinks a spec under
    {!run_case} with a caller-chosen predicate, and replaying a saved
    [.mir] repro feeds the parsed program through {!run_program} — the
    same stages as a fuzz case, without a generator in the loop. *)

type case_out = {
  co_errors : string list;  (** empty = the case passed *)
  co_reordered : int;
  co_coalesced : int;
  co_unchanged : int;
  co_pieces : int;
  co_injected : bool;  (** inject mode: a bug was planted *)
  co_caught : bool;    (** inject mode: the verifier rejected it *)
  co_blocks : int option;
      (** inject mode: blocks of the function the bug landed in *)
  co_lint_diags : int;
}

val spec_of_case : seed:int -> case:int -> Gen.spec
(** The spec case [case] of a [run ~seed] draws — the seed arithmetic in
    one place, so repro headers can name [(seed, case)] instead of
    embedding specs. *)

val case_facts : int -> bool
val case_coalesce : int -> bool
(** The per-case detector and coalescing alternation [run] applies, so a
    replay of case [i] makes the same choices. *)

val run_case :
  ?profile:[ `Trained | `Static ] ->
  backends:Sim.Machine.backend list ->
  inject:bool ->
  case:int ->
  Gen.spec ->
  case_out
(** One spec through build → lower → train → reorder → certify →
    (without inject) lint cross-check and backend differential.  [case]
    only selects the alternating detector and coalescing choices, so a
    shrink loop must hold it fixed.  [profile:`Static] replaces the
    training run with {!Reorder.Profiles.of_static} — every downstream
    stage (selection, apply, verify, differential) runs unchanged on the
    predicted counts. *)

val run_program :
  ?backends:Sim.Machine.backend list ->
  ?facts:bool ->
  ?coalesce:bool ->
  ?profile:[ `Trained | `Static ] ->
  heuristic:Mopt.Switch_lower.heuristic_set ->
  train:string ->
  test:string ->
  Mir.Program.t ->
  case_out
(** Like {!run_case} but starting from a program (which may still carry
    [Switch] terminators; it is cloned, not mutated).  [facts] picks the
    interval-facts detector (default [true]), [coalesce] the SPARC IPC
    coalescing model (default [false]), [profile] the counts source
    (default [`Trained]). *)

val run :
  ?backends:Sim.Machine.backend list ->
  ?inject:bool ->
  ?log:(string -> unit) ->
  ?profile:[ `Trained | `Static ] ->
  cases:int ->
  seed:int ->
  unit ->
  stats
(** Deterministic in [seed]: case [i] draws from a PRNG seeded with
    [seed] and [i], so the same [(cases, seed)] always replays the same
    corpus, and rerunning a seed reproduces a run.  [log]
    receives one progress line every few hundred cases.  [backends]
    defaults to the reference and closure engines
    ({!default_backends}); native code generation compiles out of
    process per fresh program, far too slow for a fuzz loop, so
    three-way differentials are opt-in via {!all_backends}.  [profile]
    (default [`Trained]) selects the counts source for every case; with
    [`Static] the fuzzer exercises the profile-free prediction path —
    injection self-tests still apply, since the verifier must reject a
    planted bug no matter where the counts came from.  Every simulated
    run is bounded by the default fuel, so a runaway case ends as a
    contained failure, never a hang. *)
