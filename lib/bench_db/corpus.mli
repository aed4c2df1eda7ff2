(** The minimized-repro corpus: every counterexample the tooling ever
    caught, shrunk and committed as a [.mir] file that replays
    deterministically through the whole pipeline.

    A repro file is the MIR program text prefixed by a [;]-comment
    header carrying everything the replay needs: the originating event,
    the switch-lowering heuristic set, the detector/coalescing choices,
    and the training and test inputs.  Replay runs the exact fuzz-case
    stages ({!Check.Fuzz.run_program}): validate → lower → train →
    reorder → certify → lint cross-check → backend differential.  A
    repro minted from a caught injected bug (or a fixed real bug)
    replays {e green} — the corpus is a regression suite, pinning the
    programs that once exposed a weakness. *)

type repro = {
  rp_name : string;       (** file basename without [.mir] *)
  rp_origin : string;     (** free-form provenance line *)
  rp_heuristic : int;     (** 0, 1, 2 = heuristic set I, II, III *)
  rp_facts : bool;        (** interval-facts detector (vs syntactic) *)
  rp_coalesce : bool;     (** SPARC IPC coalescing model *)
  rp_train : string;
  rp_test : string;
  rp_program : Mir.Program.t;
}

val heuristic_set : int -> Mopt.Switch_lower.heuristic_set
(** [0 → I], [1 → II], [2 → III]; out-of-range clamps to III. *)

val of_spec :
  name:string -> origin:string -> facts:bool -> coalesce:bool ->
  Check.Gen.spec -> repro
(** Freeze a (typically shrunk) fuzz spec as a repro.  The origin is
    folded onto one trimmed line, the form a header line reads back as. *)

val save : dir:string -> repro -> string
(** Write [dir/<name>.mir] (creating [dir] if needed); returns the
    path.  [load_file (save ~dir r)] is [r] up to program layout. *)

val load_file : string -> (repro, string) result
val load_dir : string -> (repro list, string) result
(** Every [.mir] file under [dir], sorted by name; a missing directory
    is an empty corpus.  A path that cannot be read as a directory, or
    the first malformed file, is an error naming it. *)

val replay :
  ?backends:Sim.Machine.backend list ->
  ?profile:[ `Trained | `Static ] ->
  repro ->
  Check.Fuzz.case_out
(** One repro through {!Check.Fuzz.run_program} under its recorded
    choices.  [backends] defaults to {!Check.Fuzz.default_backends};
    [profile] (default [`Trained]) replays the repro under the static
    prediction instead of its recorded training run. *)

val mint_from_inject :
  ?backends:Sim.Machine.backend list ->
  seed:int -> cases:int -> max:int -> unit -> repro list
(** Recreate inject-mode fuzz cases, shrink each caught one with
    {!Check.Gen.shrink_spec} while the verifier still catches the
    planted bug, and freeze the first [max] distinct shrunk specs as
    repros — the corpus seeding path. *)

val mint_from_failure :
  seed:int -> Check.Fuzz.failure -> repro
(** Freeze a real fuzz failure's shrunk counterexample, naming the
    first error in the origin line ([bromc fuzz --corpus-dir]). *)
