(** Machine-readable failure manifests (JSON lines).

    One flat JSON object per line, flushed per entry, so a run killed
    mid-way leaves a readable prefix — which is exactly what
    [bromc fuzz --resume] and the CI resume job consume.  Lines are
    written and read through {!Json}; {!read} parses the same format
    back. *)

type entry = {
  e_id : int;          (** job index / fuzz case number *)
  e_label : string;
  e_status : string;   (** {!Pool.outcome_status}, or fuzz "ok"/"failed" *)
  e_message : string;
  e_attempts : int;
  e_retried : int;
  e_backend : string;  (** backend that finally served the job; [""] n/a *)
  e_degraded : bool;   (** served by a lower rung than requested *)
  e_injected : string; (** {!Inject.kind_name} of a planted fault; [""] *)
  e_wall_ms : float;
}

val entry :
  ?label:string ->
  ?message:string ->
  ?attempts:int ->
  ?retried:int ->
  ?backend:string ->
  ?degraded:bool ->
  ?injected:string ->
  ?wall_ms:float ->
  id:int ->
  status:string ->
  unit ->
  entry

val ok : entry -> bool
(** [status = "ok"]. *)

val to_line : entry -> string
(** One-line JSON encoding (no trailing newline). *)

type writer

val create : string -> writer
(** Open (truncate) a manifest for incremental writing. *)

val add : writer -> entry -> unit
(** Append one entry and flush, so the line survives a crash. *)

val close : writer -> unit

val write : string -> entry list -> unit
(** Write a whole manifest at once. *)

exception Parse_error of string
(** Equal to {!Json.Parse_error}. *)

val entry_of_line : string -> entry
(** @raise Parse_error on malformed input; unknown fields are ignored
    and missing fields default. *)

val read : string -> entry list
(** Read every non-blank line of a manifest.  A torn {e final} line —
    the partial write a crash mid-{!add} leaves behind — is skipped
    rather than failing the load, so a killed run's readable prefix
    stays consumable ([bromc fuzz --resume], the journal restore path).
    @raise Parse_error on a malformed line that has valid lines after
    it (that is corruption, not a torn tail). *)
