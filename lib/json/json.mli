(** A dependency-free JSON value type, parser and printer.

    The repo's machine-readable artifacts — the historical [BENCH_PR*.json]
    snapshots, the durable serving records, the serve
    [stats] line, replay records and [lint --json] — are all JSON, and the toolchain deliberately carries
    no third-party JSON dependency.  This module is the one codec every
    reader and writer of them shares: full recursive values, arrays,
    nested objects, escapes, and a printer whose output round-trips
    ({!parse} of {!to_string} is {!equal}).  It sits at the bottom of the
    library graph, so the driver and the analyses can use it too.

    Numbers are kept as [float] with a flag recording whether the source
    lexeme was integral, so [{"n": 34}] prints back as [34], not [34.]. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string
(** Position-annotated message. *)

val parse : string -> t
(** Total on arbitrary bytes: {!Parse_error} is the only exception it
    raises.
    @raise Parse_error on malformed input (trailing garbage included). *)

val parse_file : string -> t
(** {!parse} on a whole file's contents. *)

val to_string : ?compact:bool -> t -> string
(** [compact] (default [true]) prints with no whitespace — one line, the
    shape history files store per record.  With [compact:false], objects
    and arrays break across indented lines. *)

val equal : t -> t -> bool
(** Structural, with [Int n] equal to [Float f] when [f = float n]. *)

(** {2 Accessors} — total, returning [None] on shape mismatch. *)

val member : string -> t -> t option
val str : t -> string option
val num : t -> float option
val int : t -> int option
val bool : t -> bool option
val arr : t -> t list option
val obj : t -> (string * t) list option

val escape_string : string -> string
(** The quoted, escaped JSON literal for a string (used for embedding
    strings in line-oriented headers outside full JSON documents). *)

val unescape_string : string -> string option
(** Inverse of {!escape_string}; [None] if not a valid quoted literal. *)
