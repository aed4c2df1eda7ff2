(** Native execution backend: runtime OCaml code generation.

    Emits a {!Image.t} as OCaml source — functions and basic blocks
    become top-level functions over a per-exec state record, blocks
    transfer by direct tail calls, registers live in one reused
    register file per call depth (so a simulated call allocates
    nothing), counter/fuel charging follows {!Image.plan} and predictor
    events are delivered at branch terminators — compiles it out of
    process with
    [ocamlfind ocamlopt -shared], loads the resulting [.cmxs] with
    [Dynlink.loadfile_private], and executes it with observable
    behaviour byte-identical to the other two backends (output, exit
    code, the ten counters, branch-site event stream, block trace, trap
    messages, cooperative cancellation at block granularity).

    Compiled artifacts are cached on disk keyed by the content hash of
    the generated source (which the image fully determines) plus a
    compiler/ABI fingerprint, so repeated runs of the same image pay
    code generation once per machine, and once per process thanks to an
    in-memory table of loaded entry points: the {!Artifact} cache named
    [native], single-flight per content key.

    Hosts without a working [ocamlfind]/native toolchain do not fail:
    {!prepare} returns [Error], {!run_image} raises {!Unavailable}, and
    callers (the driver's degradation ladder, the CLI) fall back to the
    closure backend. *)

exception Unavailable of string
(** Native execution could not be used: toolchain missing, code
    generation failed, compilation failed, or the plugin would not
    load.  Never raised for errors of the simulated program — those are
    {!Runtime.Trap}, {!Runtime.Program_exit}, {!Runtime.Cancelled},
    exactly as in the other backends. *)

val set_enabled : bool -> unit
(** Force-disable (or re-enable) the backend for this process; when
    disabled, {!available} is false and {!prepare} fails without
    probing.  Starts disabled when the [BROMC_NO_NATIVE] environment
    variable is set. *)

val enabled : unit -> bool

val available : unit -> bool
(** Probe (once per process, cached) whether native execution works
    end to end: generate, compile and load a trivial plugin. *)

val set_default_cache_dir : string option -> unit
(** Override the on-disk artifact store location for calls that do not
    pass [~cache_dir] ([None] restores the built-in default: the
    [BROMC_NATIVE_CACHE] environment variable, else
    [$XDG_CACHE_HOME/bromc/native], else [~/.cache/bromc/native]). *)

type t
(** A loaded image: generated, compiled (or fetched from the cache) and
    dynlinked, ready to execute any number of times. *)

val image : t -> Image.t

val current : t -> bool
(** [false] once {!clear_memo} has run since the handle was prepared.
    A caller that holds a handle across requests checks this (one
    atomic read) and prepares again when it is retired. *)

val prepare : ?cache_dir:string -> Image.t -> (t, string) result
(** Generate, compile and load [img].  [Error] carries a diagnostic
    (toolchain missing, compiler output, ...) and leaves the caller
    free to degrade to another backend. *)

val store_path : ?cache_dir:string -> Image.t -> string option
(** The path {!prepare} loads [img]'s plugin from in the on-disk store,
    whether or not it has been built yet; [None] when the backend is
    disabled, no compiler is available or [img] has no native code. *)

val exec :
  ?config:Runtime.config ->
  ?profile:Profile.t ->
  ?sink:Predictor.sink ->
  ?on_block:(func:string -> label:string -> unit) ->
  t ->
  input:string ->
  Runtime.result
(** Execute a prepared image; the mirror of {!Compiled.exec}.  The
    generated code hands each branch event to [sink] in execution order
    and each block entry to [on_block], as every engine does; a
    [Sink_bank] buffers the events in the bank itself
    ({!Predictor.bank_access}).  Global memory comes from
    {!Image.with_memory} and the output buffer from
    {!Image.with_output}, as for {!Compiled.exec}. *)

val run_image :
  ?config:Runtime.config ->
  ?profile:Profile.t ->
  ?sink:Predictor.sink ->
  ?on_block:(func:string -> label:string -> unit) ->
  ?cache_dir:string ->
  Image.t ->
  input:string ->
  Runtime.result
(** {!prepare} + {!exec}.  Every call prepares again: it regenerates
    the plugin source, digests it and looks the digest up in the
    in-process memo, which costs several times the execution of a
    small program.  Only the compile and the load are memoized.  A
    caller that runs one image many times should {!prepare} it once and
    {!exec} the handle.  Raises {!Unavailable} when the backend cannot
    run. *)

val generate : Image.t -> string * exn array
(** The generated plugin source and the table of decode-time exceptions
    re-raised by [Praise_term] terminators (exposed for tests: the
    source is the cache key's content, so equal images must generate
    byte-identical source). *)

type stats = {
  memo_hits : int;  (** image already loaded in this process *)
  disk_hits : int;  (** [.cmxs] served from the on-disk store *)
  misses : int;  (** artifact absent: the compiler had to run *)
  compiles : int;  (** successful out-of-process compilations *)
  memo_entries : int;
      (** entry points currently in the memo table; it has no cap, as
          mapped plugins cannot be unloaded *)
  quarantined : int;
      (** artifacts moved aside after a checksum or load failure *)
}

val stats : unit -> stats
val reset_stats : unit -> unit
(** Resets the event counters (hits/misses/compiles/quarantined); the
    memo table itself is left alone. *)

val clear_memo : unit -> unit
(** Drop the in-process table of loaded entry points (already-mapped
    plugins stay mapped); the next {!prepare} of a known image is
    served from the on-disk store again, even when a load of it was
    still in flight at the clear.  It also retires every handle
    already prepared ({!current} turns [false]), so a holder that
    checks it reloads from the store too.  For cache tests and fault
    injection — production code has no reason to call this. *)

(** The on-disk artifact store.  Layout: one subdirectory per
    compiler/ABI fingerprint, one [.cmxs] per image content hash with a
    [.sum] sidecar holding the MD5 of its bytes, written before the
    artifact is renamed into place.  The sidecar is verified before
    every disk-hit load; an artifact that fails the check, has no
    sidecar, or that [Dynlink] rejects is moved aside into a
    [quarantine/] subdirectory — never silently deleted — and rebuilt
    from source. *)
module Cache : sig
  val default_dir : unit -> string

  val fingerprint : unit -> string option
  (** The current toolchain's fingerprint subdirectory name, or [None]
      when no compiler is available. *)

  type entry = {
    e_fingerprint : string;
    e_files : int;
    e_bytes : int;
    e_current : bool;  (** matches the running toolchain *)
  }

  val list : ?dir:string -> unit -> entry list
  (** One entry per fingerprint directory (the [quarantine/]
      subdirectory left out), by name. *)

  val clear : ?dir:string -> unit -> int
  (** Remove every cached artifact; returns the number of files
      removed. *)

  val evict_stale : ?dir:string -> unit -> int
  (** Remove artifacts whose fingerprint differs from the running
      toolchain's (requires a working compiler to know which one that
      is); returns the number of files removed.  The fingerprint
      carries the plugin schema, so plugins of an older schema (schema
      2's closure-per-call shape, say) are stale too.  The
      [quarantine/] subdirectory is preserved. *)

  type verify_report = {
    v_checked : int;  (** artifacts digested *)
    v_ok : int;  (** sidecar present and matching *)
    v_quarantined : int;
        (** mismatching or sidecar-less artifacts moved to
            [quarantine/] *)
  }

  val verify : ?dir:string -> unit -> verify_report
  (** Proactive integrity sweep: digest every cached [.cmxs] against
      its [.sum] sidecar without waiting for a load to trip over the
      corruption.  Mismatching and sidecar-less artifacts are
      quarantined (the next request rebuilds them). *)
end
