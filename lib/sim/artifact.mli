(** Content-hash artifact caches with single-flight builds.

    A cache maps content-hash keys (the caller picks the hashing
    discipline; [Digest.to_hex] of the source text plus any config
    fingerprint is the usual choice) to built artifacts: parsed MIR,
    pre-decoded {!Image.t}s, compiled closure programs.  The cache is
    safe to share across domains and guarantees {e single-flight}
    builds: when several domains request the same cold key at once,
    exactly one runs the build function while the rest block until the
    artifact is ready and then share it.

    Entries stay resident until {!remove} or {!clear} drops them; the
    cache has no capacity bound.  Nothing outside the handle refers to
    a cache, so dropping the last handle frees it and every artifact it
    holds. *)

type 'a t

type stats = {
  a_name : string;  (** the [~name] given to {!create} *)
  a_entries : int;  (** resident artifacts *)
  a_hits : int;
      (** requests served from a resident artifact, including waiters
          that blocked on another domain's in-flight build *)
  a_misses : int;  (** requests that found the key cold *)
  a_builds : int;  (** build functions actually run (once per cold key) *)
  a_failures : int;  (** builds that raised; the key stays cold *)
}

val create : name:string -> unit -> 'a t
(** [create ~name ()] makes an empty cache. *)

val find_or_build : 'a t -> string -> (unit -> 'a) -> 'a
(** [find_or_build t key build] returns the artifact under [key],
    running [build] at most once per cold key regardless of how many
    domains ask concurrently.  If [build] raises, the exception is
    re-raised in the building domain and the key is left cold; a waiter
    that was blocked on the failed build takes over and runs [build]
    itself rather than inheriting the failure. *)

val remove : 'a t -> string -> unit
(** Drop a key if resident.  In-flight builds are not interrupted. *)

val clear : 'a t -> unit
(** Drop every resident artifact.  Counters are kept (they describe the
    process, not the contents). *)

val reset_stats : 'a t -> unit
(** Zero the event counters (hits, misses, builds, failures);
    resident artifacts are kept. *)

val ready : 'a t -> 'a list
(** Every resident artifact, in no particular order; in-flight builds
    are left out.  Counts neither a hit nor a miss. *)

val stats : 'a t -> stats
