(** Durable serving state: one atomic record file per program.

    The crash-safety substrate under {!Server}.  Everything the online
    profiling loop learns — merged {!Sim.Profile} counters,
    {!Reorder.Drift} generations and signatures — is persisted as one
    {e absolute} record per program, a CRC-framed flat JSON line (a
    {!Json} object under a [crc32hex ] prefix) in [<dir>/<key>.rec].
    Every write replaces that file atomically (tmp, fsync, rename), so
    the directory always holds each program's latest complete record.

    The reader is corruption tolerant: a record that fails its CRC or
    does not parse — a torn or flipped file — is skipped and counted,
    and the other programs restore.  Losing one record only costs that
    program its learned state; it cold-starts on its next request. *)

type program = {
  p_key : string;
      (** {!Server}'s content key (config fingerprint + source hash);
          restore re-derives it and drops records that no longer match
          (e.g. the daemon restarted under a different config) *)
  p_name : string;
  p_source : string;  (** full source, so restore can rebuild artifacts *)
  p_generation : int;  (** served artifact generation *)
  p_signature : string;  (** {!Reorder.Drift} signature it was built with *)
  p_executions : int;  (** total profile executions at write time *)
  p_last_opt_execs : int;  (** executions at the last (re-)optimization *)
  p_ranges : (int * int array * int) list;  (** {!Sim.Profile.counters} *)
  p_combs : (int * int array * int) list;
}

type restore = {
  r_programs : program list;  (** one per valid record file, in name order *)
  r_skipped : int;
      (** [*.rec] entries dropped: torn, flipped, empty, unreadable,
          filed under another key's name, or not a file *)
}

val version : int
(** Record format version; mismatched records are skipped on restore. *)

val record_path : dir:string -> string -> string
(** [record_path ~dir key] is [<dir>/<key>.rec]. *)

val prepare : dir:string -> unit
(** Create [dir] and its parents as needed.  Raises [Sys_error
    "<dir>: not a directory"] when [dir] exists as something else, and
    [Unix.Unix_error] when it cannot be created. *)

val write : dir:string -> program -> unit
(** Replace [program]'s record: write [<key>.rec.tmp], fsync it and
    rename it over [<key>.rec].  A crash leaves the old record or the
    new one, never a partial file. *)

val load : dir:string -> restore
(** Read every [*.rec] file of [dir] in name order.  Never raises: a
    missing directory restores as empty, damaged records are counted
    in [r_skipped], and files with other names ([*.tmp] included) are
    ignored. *)

(**/**)

val crc32 : string -> int
val frame : string -> string
val unframe : string -> string option
(** Exposed for tests. *)
