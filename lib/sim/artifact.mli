(** Content-hash artifact caches with single-flight builds.

    A cache maps content-hash keys (the caller picks the hashing
    discipline; [Digest.to_hex] of the source text plus any config
    fingerprint is the usual choice) to built artifacts: parsed MIR,
    pre-decoded {!Image.t}s, compiled closure programs.  The cache is
    safe to share across domains and guarantees {e single-flight}
    builds: when several domains request the same cold key at once,
    exactly one runs the build function while the rest block until the
    artifact is ready and then share it.

    Entries are kept under an optional LRU capacity; eviction drops the
    cache's reference to the artifact (the GC reclaims it once the last
    user lets go) and is counted in {!stats}.  Nothing outside the
    handle refers to a cache, so dropping the last handle frees it and
    every artifact it holds. *)

type 'a t

type stats = {
  a_name : string;  (** the [~name] given to {!create} *)
  a_entries : int;  (** resident artifacts *)
  a_capacity : int;  (** LRU cap; 0 = unbounded *)
  a_hits : int;
      (** requests served from a resident artifact, including waiters
          that blocked on another domain's in-flight build *)
  a_misses : int;  (** requests that found the key cold *)
  a_builds : int;  (** build functions actually run (once per cold key) *)
  a_evictions : int;  (** artifacts dropped by the LRU cap *)
  a_failures : int;  (** builds that raised; the key stays cold *)
}

val create : ?capacity:int -> name:string -> unit -> 'a t
(** [create ~name ()] makes an empty cache.  [capacity] bounds resident
    entries (least recently used evicted first); 0 (the default) means
    unbounded. *)

val find_or_build : 'a t -> string -> (unit -> 'a) -> 'a
(** [find_or_build t key build] returns the artifact under [key],
    running [build] at most once per cold key regardless of how many
    domains ask concurrently.  If [build] raises, the exception is
    re-raised in the building domain and the key is left cold; a waiter
    that was blocked on the failed build takes over and runs [build]
    itself rather than inheriting the failure. *)

val find : 'a t -> string -> 'a option
(** Peek without building (counts a hit or a miss). *)

val remove : 'a t -> string -> unit
(** Drop a key if resident.  In-flight builds are not interrupted. *)

val clear : 'a t -> int
(** Drop every resident artifact; returns how many were dropped.
    Counters are kept (they describe the process, not the contents). *)

val set_capacity : 'a t -> int -> unit
(** Change the LRU cap (0 = unbounded), evicting least-recently-used
    entries at once if the cache is over the new cap. *)

val reset_stats : 'a t -> unit
(** Zero the event counters (hits, misses, builds, evictions,
    failures); resident artifacts and the capacity are kept. *)

val ready : 'a t -> 'a list
(** Every resident artifact, in no particular order; in-flight builds
    are left out.  Counts neither a hit nor a miss and does not touch
    the LRU order. *)

val stats : 'a t -> stats
