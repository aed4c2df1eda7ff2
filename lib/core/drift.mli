(** Profile-drift detection for a long-running service.

    A serving daemon keeps the profile counters of each cached program
    alive across requests.  As traffic shifts, the accumulated counts
    can come to justify a {e different} Eq. 1–4 ordering than the one
    the served artifact was optimized with.  This module answers the
    question "would the selector choose differently under today's
    counts?" without touching any program: it reruns the paper's
    selection ({!Pass.choose}, the rule {!Pass.run} applies) against a
    profile table and renders the outcome as a stable string
    {e signature}.

    The daemon computes the signature when it (re-)optimizes a program
    and again after merging fresh profile shards; a changed signature
    means the cost ordering of at least one sequence has flipped, and
    the artifact should be rebuilt. *)

val signature :
  ?selector:[ `Greedy | `Exhaustive ] ->
  ?keep_original_default:bool ->
  Mir.Program.t ->
  Detect.t list ->
  Sim.Profile.t ->
  string
(** [signature base seqs table] renders, per sequence: the payload
    order the selector picks under [table]'s counts, the eliminated
    payloads, and the chosen default target — or ["?"] for a sequence
    with no executions (or no compatible ordering) yet.  Deterministic
    in the counts; equal counts give equal signatures.  [base] must be
    the (untransformed) program the sequences were detected on. *)

val drifted : served:string -> current:string -> bool
(** [drifted ~served ~current] — has the selection moved away from the
    signature the served artifact was built with?  A sequence that
    merely {e gains} its first samples (served ["?"]) also counts as
    drift: the service now has a profile where it had none. *)

(** {2 Durable drift state}

    What a crash-safe daemon persists per program: the generation its
    served artifact is at, the profile executions when it was last
    (re-)optimized, and the signature it was built with.  Versioned: a
    blob written by an older signature-rendering scheme deserializes to
    [None], forcing the restored daemon to recompute rather than compare
    incomparable signatures. *)

val state_to_string : generation:int -> executions:int -> string -> string
(** Render [(generation, executions, signature)] as one line (the
    signature may contain any characters except newline). *)

val state_of_string : string -> (int * int * string) option
(** Inverse of {!state_to_string}; [None] on malformed input or a
    version mismatch. *)
