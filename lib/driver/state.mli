(** Durable serving state: write-ahead journal + periodic snapshots.

    The crash-safety substrate under {!Server}.  Everything the online
    profiling loop learns — merged {!Sim.Profile} counters,
    {!Reorder.Drift} generations and signatures — is persisted as
    {e absolute} per-program records, one CRC-framed flat JSON line
    each (a {!Json} object under a [crc32hex ] prefix).  The journal is
    appended and flushed record by record; a snapshot rewrites the
    whole state atomically (tmp-then-rename) and truncates the journal.
    Restore replays snapshot then journal with last-record-wins, so
    duplicated or superseded records are free.

    The reader is torn-tail and corruption tolerant: a frame that fails
    its CRC or does not parse — the partial final line of an
    interrupted append, a hole torn mid-file — is skipped and counted,
    and reading resumes at the next newline.  One damaged record never
    poisons the rest of the file, and losing one journal record only
    costs the delta since the previous record for that program (records
    are absolute). *)

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
  r_programs : program list;  (** unique keys; journal beats snapshot *)
  r_records : int;
      (** valid frames consumed across both files, including the
          predictor-bank records earlier versions wrote, which are read
          and dropped *)
  r_skipped : int;  (** frames dropped by the CRC check or the parser *)
}

val version : int
(** Record format version; mismatched records are skipped on restore. *)

val journal_path : dir:string -> string
val snapshot_path : dir:string -> string

val exists : dir:string -> bool
(** Does [dir] hold any persisted state (snapshot or journal)? *)

(** {2 The journal} *)

type writer

val open_journal : dir:string -> writer
(** Create [dir] as needed and open the journal for appending
    ([O_APPEND]: records land at the current end of file even if a
    concurrent snapshot truncates the journal underneath).  Writes are
    serialized by an internal lock and flushed per record.  A record
    appended after a torn tail starts on a fresh line, so only the torn
    fragment is lost. *)

val journal_program : writer -> program -> unit

val appended : writer -> int
(** Records appended through this writer so far (the snapshot-cadence
    counter). *)

val close_journal : writer -> unit

(** {2 Snapshots} *)

val write_snapshot : dir:string -> program list -> unit
(** Write the complete state to [snapshot.tmp], fsync, and rename over
    the snapshot — readers see the old state or the new state, never a
    partial file.  Does {e not} truncate the journal; call
    {!truncate_journal} after (a crash between the two merely leaves
    journal records that restore absorbs by last-record-wins). *)

val truncate_journal : dir:string -> unit

(** {2 Restore} *)

val load : dir:string -> restore
(** Replay snapshot then journal, last record wins per program key.
    Never raises on damaged state: unreadable files restore as empty,
    damaged frames are counted in [r_skipped]. *)

(** {2 Fault injection} *)

val tear_journal : dir:string -> bool
(** Chaos hook: cut the journal a few bytes short of its end, exactly
    the shape a crash mid-append leaves behind.  [false] when there is
    no journal (or it is too short to tear). *)

(**/**)

val crc32 : string -> int
val frame : string -> string
val unframe : string -> string option
(** Exposed for tests. *)
