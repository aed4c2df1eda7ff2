(** Replay driver: simulated production traffic for {!Server}.

    [bromc replay] (and the CI daemon smoke job) fire mixed workload
    requests at a {!Server} at a configurable concurrency and certify
    the answers: every [ok] response is checked against the reference
    interpreter, and the report counts cache hits, shard merges and
    re-optimizations.  It measures no time — serving speed is
    [bench/perf]'s — so at one domain the report is a function of the
    code and the seed.

    The request mix cycles over the paper's 17 workloads (or a chosen
    subset), each request taking a seeded newline-aligned slice of the
    workload's test input so inputs vary while staying valid.  With
    [drift] enabled the mix also includes a synthetic char-class
    dispatch program whose input distribution flips halfway through
    the stream — lowercase-heavy, then digit-heavy — so the accumulated
    online profile flips the Eq. 1–4 ordering of its dispatch sequence
    and a drift-triggered re-optimization demonstrably fires.

    The replay runs in two waves with a {!Server.sync} between them
    (so shard merges and the drift check happen deterministically even
    at low request counts).  The oracle is the reference interpreter
    on the unreordered base, compiled by the replay itself for each
    distinct program, so checks never touch the server's caches; every
    response must match it byte for byte. *)

type fault_report = {
  rf_request : int;  (** victim request index *)
  rf_kind : string;  (** {!Inject.server_kind_name} tag *)
  rf_outcome : string;
      (** ["ok"] (served correctly despite the fault),
          ["failed:STATUS"] (clean failure response — contained),
          ["vacuous"] (nothing to damage: no artifact, no state dir),
          ["escape"] (lost response or wrong result — a certification
          failure) *)
}

type outcome = {
  ro_requests : int;  (** requests fired *)
  ro_ok : int;
  ro_failed : int;  (** non-[ok] responses (trap/timeout/crash) *)
  ro_checked : int;  (** responses checked: every [ok] one *)
  ro_mismatches : int;  (** byte differences against the oracle (0!) *)
  ro_events : Server.reopt_event list;
  ro_stats : Server.stats;
      (** server counters at shutdown; with a crash-restart, the event
          counters (requests, cold, samples, merges, re-opts, cache
          hits/misses/builds/failures) sum both servers' *)
  ro_chaos_planned : int;  (** faults drawn from the chaos plan *)
  ro_chaos_ok : int;  (** victims still served correctly *)
  ro_chaos_failed : int;  (** victims with a clean failure response *)
  ro_chaos_vacuous : int;  (** faults that found nothing to damage *)
  ro_chaos_escapes : int;  (** lost responses or wrong results (0!) *)
  ro_chaos_faults : fault_report list;
  ro_crash_restarts : int;  (** simulated crash-restart cycles (0 or 1) *)
  ro_restored : int;  (** programs warm-started after the crash *)
  ro_restore_exact : bool;
      (** restored (name, generation, executions) set matched the
          pre-crash server exactly *)
  ro_backend : Sim.Machine.backend;  (** the configured first rung *)
}

val drift_name : string
(** Name of the synthetic drift workload (["drift"]). *)

val drift_source : string
(** Its MiniC source: a char-class dispatch chain (digits / uppercase /
    lowercase / other) whose hot arm is whatever the input is made
    of. *)

val drift_input : phase:int -> seed:int -> string
(** Deterministic input for the drift program: phase 0 is
    lowercase-heavy, phase 1 digit-heavy and longer (so the accumulated
    counts overtake the first phase's). *)

val input_slice : seed:int -> string -> string
(** A newline-aligned prefix slice of [text] whose length varies with
    [seed] (capped at 2048 bytes); [""] stays [""]. *)

(** {1 The serve line protocol}

    [bromc serve] reads one command per line on stdin and answers on
    stdout; these are its parser and its reply lines. *)

type command =
  | Blank  (** no word: no reply *)
  | Quit  (** [quit] or [exit] *)
  | Sync  (** [sync] *)
  | Stats  (** [stats] *)
  | Run of { name : string; seed : int; deadline_ms : int option }
      (** [run NAME [SEED [DEADLINE_MS]]]: a SEED that is not an [int]
          reads as 0, a DEADLINE_MS that is not a positive [int] as no
          deadline, and later words are ignored *)
  | Invalid of string  (** anything else; the reply line *)

val parse_command : string -> command
(** Parse one line, split into words on spaces after trimming.  Total:
    any bytes parse to a command. *)

val request : string -> seed:int -> (string * string, string) result
(** The (source, input) a [run NAME SEED] request serves: a built-in
    workload on its test input's {!input_slice} for [seed], or the
    {!drift_name} program on {!drift_input}, phase 0 for an even seed
    and 1 for an odd one.  [Error] names an unknown workload. *)

val render : int -> (Server.response, string) result -> string
(** The reply line to request [id]: [resp ID ok ...] with the output's
    length and MD5, [resp ID STATUS ...] for a failed response, or
    [resp ID err MSG] for a request {!request} refused. *)

val run :
  ?config:Config.t ->
  ?workloads:string list ->
  ?requests:int ->
  ?concurrency:int ->
  ?seed:int ->
  ?drift:bool ->
  ?chaos:int ->
  ?chaos_seed:int ->
  ?state_dir:string ->
  ?progress:(string -> unit) ->
  unit ->
  outcome
(** Run the replay.  Defaults: all 17 workloads, 1000 requests,
    {!Pool.default_domains} concurrency, seed 42, drift on.
    [progress] receives one-line phase messages.  Raises [Failure] on
    an unknown workload name.

    [chaos] (default 0) plants that many {!Inject.server_plan} faults
    (seeded by [chaos_seed], default 7) across the request stream:
    worker kills and stalls strike inside the victim's guarded
    closure; artifact corruption/truncation and record tears damage
    the environment just before the victim fires.  A victim served
    [ok] with a wrong result is an escape; the certification bar is
    [ro_chaos_escapes = 0].

    [state_dir] makes the server durable and adds a crash-restart
    cycle between the waves: after wave 1's sync the server is killed
    with {e no} final flush, a fresh server restores from the state
    dir (certified exact in [ro_restore_exact]), and wave 2 resumes on
    it. *)

val report : outcome -> string
(** The text [bromc replay] prints: requests, cache counters, profile
    merges, re-optimization events, the oracle tally, chaos verdicts
    and the durability verdict, one fact per line.  Holds no wall-clock
    number.  A [native:] line (compiles, disk hits, quarantined) is
    included only when [ro_backend] is [`Native], since
    {!Sim.Native.stats} counts for the whole process. *)
