(* Durable serving state: one record file per program.

   Everything the online-profiling loop learns — merged profile
   counters and drift generations — is re-creatable absolute state, so
   the format is deliberately dumb: a record carries the *whole*
   current state of one program, and each program's latest record is
   all there is to keep.  It lives in [<dir>/<key>.rec], replaced
   atomically (tmp, fsync, rename) on every write, so a reader sees
   the old record or the new one, never a partial file.

   Frame: "crc32hex payload\n" where payload is one flat JSON object
   written and read through {!Json}.  The CRC makes a torn or flipped
   file (a crash mid-write on a filesystem that reorders, a
   chaos-injected tear) detectable; the reader skips it, and the other
   programs restore. *)

type program = {
  p_key : string;  (* Server content key: config fingerprint + source *)
  p_name : string;
  p_source : string;
  p_generation : int;
  p_signature : string;
  p_executions : int;  (* total profile executions at write time *)
  p_last_opt_execs : int;
  p_ranges : (int * int array * int) list;  (* Sim.Profile.counters *)
  p_combs : (int * int array * int) list;
}

type restore = {
  r_programs : program list;  (* one per record file, in name order *)
  r_skipped : int;  (* *.rec entries dropped: damaged, misfiled, unreadable *)
}

let version = 1

let record_path ~dir key = Filename.concat dir (key ^ ".rec")

(* ------------------------------------------------------------------ *)
(* CRC-32 (IEEE 802.3), table-driven                                    *)
(* ------------------------------------------------------------------ *)

let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

let crc32 s =
  let table = Lazy.force crc_table in
  let c = ref 0xFFFFFFFF in
  String.iter
    (fun ch ->
      c := table.((!c lxor Char.code ch) land 0xFF) lxor (!c lsr 8))
    s;
  !c lxor 0xFFFFFFFF

let frame payload = Printf.sprintf "%08x %s" (crc32 payload) payload

(* [Some payload] iff the line is a well-formed frame whose CRC matches *)
let unframe line =
  let n = String.length line in
  if n < 10 || line.[8] <> ' ' then None
  else
    let crc_hex = String.sub line 0 8 in
    let payload = String.sub line 9 (n - 9) in
    match int_of_string_opt ("0x" ^ crc_hex) with
    | Some crc when crc = crc32 payload -> Some payload
    | Some _ | None -> None

(* ------------------------------------------------------------------ *)
(* Record encoding                                                      *)
(* ------------------------------------------------------------------ *)

(* counter lists as "id:executions:c,c,c;..." — compact, newline-free,
   and trivially split-able *)
let encode_counters cs =
  String.concat ";"
    (List.map
       (fun (id, counts, execs) ->
         Printf.sprintf "%d:%d:%s" id execs
           (String.concat ","
              (List.map string_of_int (Array.to_list counts))))
       cs)

let decode_counters s =
  if String.equal s "" then Some []
  else
    let seq str = String.split_on_char str in
    let parse_one part =
      match seq ':' part with
      | [ id; execs; counts ] -> (
        match (int_of_string_opt id, int_of_string_opt execs) with
        | Some id, Some execs ->
          let cs = if counts = "" then [] else seq ',' counts in
          let arr = List.filter_map int_of_string_opt cs in
          if List.length arr <> List.length cs then None
          else Some (id, Array.of_list arr, execs)
        | _ -> None)
      | _ -> None
    in
    let parts = List.map parse_one (seq ';' s) in
    if List.for_all Option.is_some parts then
      Some (List.map Option.get parts)
    else None

let program_payload p =
  Json.to_string
    (Json.Obj
       [
         ("t", Json.Str "program");
         ("v", Json.Int version);
         ("key", Json.Str p.p_key);
         ("name", Json.Str p.p_name);
         ("source", Json.Str p.p_source);
         ( "drift",
           Json.Str
             (Reorder.Drift.state_to_string ~generation:p.p_generation
                ~executions:p.p_executions p.p_signature) );
         ("last_opt", Json.Int p.p_last_opt_execs);
         ("ranges", Json.Str (encode_counters p.p_ranges));
         ("combs", Json.Str (encode_counters p.p_combs));
       ])

let record_of_payload payload =
  match Json.parse payload with
  | exception Json.Parse_error _ -> None
  | j -> (
    let str k = Option.value ~default:"" (Option.bind (Json.member k j) Json.str) in
    let int k = Option.bind (Json.member k j) Json.int in
    match
      ( int "v",
        str "t",
        Reorder.Drift.state_of_string (str "drift"),
        int "last_opt",
        decode_counters (str "ranges"),
        decode_counters (str "combs") )
    with
    | Some v, "program", Some (generation, executions, signature),
      Some last_opt, Some ranges, Some combs
      when v = version && str "key" <> "" ->
      Some
        {
          p_key = str "key";
          p_name = str "name";
          p_source = str "source";
          p_generation = generation;
          p_signature = signature;
          p_executions = executions;
          p_last_opt_execs = last_opt;
          p_ranges = ranges;
          p_combs = combs;
        }
    | _ -> None)

(* ------------------------------------------------------------------ *)
(* Record files                                                         *)
(* ------------------------------------------------------------------ *)

let mkdirs dir =
  let rec go d =
    if d <> "" && d <> "/" && d <> "." && not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  go dir

let prepare ~dir =
  mkdirs dir;
  if not (Sys.is_directory dir) then
    raise (Sys_error (dir ^ ": not a directory"))

(* tmp-then-rename: readers see the old record or the complete new
   one, never a partial write.  A tmp a failed write leaves behind is
   ignored by [load] and truncated by the next write *)
let write ~dir p =
  let path = record_path ~dir p.p_key in
  let tmp = path ^ ".tmp" in
  Out_channel.with_open_bin tmp (fun oc ->
      output_string oc (frame (program_payload p) ^ "\n");
      flush oc;
      try Unix.fsync (Unix.descr_of_out_channel oc)
      with Unix.Unix_error _ -> ());
  Sys.rename tmp path

(* the record in [dir/name], if it is whole and filed under its own
   key: a copy under another name would restore one program twice *)
let read_record ~dir name =
  match
    In_channel.with_open_bin (Filename.concat dir name) In_channel.input_all
  with
  | exception Sys_error _ -> None
  | s -> (
    match Option.bind (unframe (String.trim s)) record_of_payload with
    | Some p when String.equal name (p.p_key ^ ".rec") -> Some p
    | _ -> None)

let load ~dir =
  let names =
    match Sys.readdir dir with
    | exception Sys_error _ -> []
    | a ->
      List.filter (fun f -> Filename.check_suffix f ".rec") (Array.to_list a)
  in
  let records = List.map (read_record ~dir) (List.sort compare names) in
  {
    r_programs = List.filter_map Fun.id records;
    r_skipped = List.length (List.filter Option.is_none records);
  }
