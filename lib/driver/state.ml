(* Durable serving state: a write-ahead journal plus periodic snapshots.

   Everything the online-profiling loop learns — merged profile
   counters and drift generations — is re-creatable absolute state, so
   the format is deliberately dumb: every record carries the *whole*
   current state of one program, one CRC-framed flat-JSON line each,
   and restore is last-record-wins over snapshot-then-journal.  No
   deltas, no compaction logic beyond "snapshot, then truncate the
   journal".

   Frame: "crc32hex payload\n" where payload is one flat JSON object
   written and read through {!Json}.  The CRC makes torn tails and mid-file
   corruption (a hole from an interrupted write, a chaos-injected tear)
   detectable per line; the reader skips frames that fail the check and
   resynchronizes at the next newline, so one damaged record never
   poisons the rest of the file. *)

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
  r_programs : program list;  (* unique keys, journal beats snapshot *)
  r_records : int;  (* valid frames consumed *)
  r_skipped : int;  (* frames dropped by the CRC or the parser *)
}

let version = 1

let journal_path ~dir = Filename.concat dir "journal"
let snapshot_path ~dir = Filename.concat dir "snapshot"

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

(* earlier versions also wrote ["t":"bank"] records of predictor
   tallies; they are valid frames whose content is no longer kept *)
type record = Program of program | Legacy_bank

let record_of_payload payload =
  match Json.parse payload with
  | exception Json.Parse_error _ -> None
  | j -> (
    let str k = Option.value ~default:"" (Option.bind (Json.member k j) Json.str) in
    let int k = Option.bind (Json.member k j) Json.int in
    if int "v" <> Some version then None
    else
      match str "t" with
      | "program" -> (
        match
          ( Reorder.Drift.state_of_string (str "drift"),
            int "last_opt",
            decode_counters (str "ranges"),
            decode_counters (str "combs") )
        with
        | Some (generation, executions, signature), Some last_opt,
          Some ranges, Some combs
          when str "key" <> "" ->
          Some
            (Program
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
               })
        | _ -> None)
      | "bank" -> Some Legacy_bank
      | _ -> None)

(* ------------------------------------------------------------------ *)
(* Writing                                                              *)
(* ------------------------------------------------------------------ *)

let mkdirs dir =
  let rec go d =
    if d <> "" && d <> "/" && d <> "." && not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  go dir

type writer = { w_oc : out_channel; w_lock : Mutex.t; mutable w_appended : int }

(* O_APPEND, so every flush lands at the file's current end even after
   a concurrent snapshot truncated it under us; readable, so [append]
   can look at the last byte *)
let open_journal ~dir =
  mkdirs dir;
  let fd =
    Unix.openfile (journal_path ~dir)
      [ Unix.O_RDWR; Unix.O_APPEND; Unix.O_CREAT ]
      0o644
  in
  {
    w_oc = Unix.out_channel_of_descr fd;
    w_lock = Mutex.create ();
    w_appended = 0;
  }

(* does the file end without a newline, as a crash mid-append (or a
   chaos tear) leaves it?  A record appended there would be glued to
   the torn fragment and fail its CRC with it *)
let ends_torn oc =
  let fd = Unix.descr_of_out_channel oc in
  match Unix.lseek fd (-1) Unix.SEEK_END with
  | exception Unix.Unix_error _ -> false (* empty *)
  | _ ->
    let b = Bytes.create 1 in
    Unix.read fd b 0 1 = 1 && Bytes.get b 0 <> '\n'

let append w payload =
  Mutex.lock w.w_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock w.w_lock)
    (fun () ->
      (* start on a line of our own: the torn fragment becomes one
         skipped frame and this record survives *)
      if ends_torn w.w_oc then output_char w.w_oc '\n';
      output_string w.w_oc (frame payload);
      output_char w.w_oc '\n';
      flush w.w_oc;
      w.w_appended <- w.w_appended + 1;
      w.w_appended)

let journal_program w p = ignore (append w (program_payload p))
let appended w = w.w_appended

let close_journal w =
  Mutex.lock w.w_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock w.w_lock)
    (fun () -> close_out_noerr w.w_oc)

let fsync_out oc =
  flush oc;
  try Unix.fsync (Unix.descr_of_out_channel oc) with Unix.Unix_error _ -> ()

(* atomic tmp-then-rename; readers see either the old snapshot or the
   complete new one, never a partial write.  The journal is truncated
   only after the rename: a crash between the two leaves journal
   records that duplicate the snapshot, which last-record-wins replay
   absorbs for free *)
let write_snapshot ~dir programs =
  mkdirs dir;
  let tmp = snapshot_path ~dir ^ ".tmp" in
  let oc = open_out_gen [ Open_wronly; Open_creat; Open_trunc; Open_binary ] 0o644 tmp in
  (try
     List.iter
       (fun p ->
         output_string oc (frame (program_payload p));
         output_char oc '\n')
       programs;
     fsync_out oc;
     close_out oc
   with e ->
     close_out_noerr oc;
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  Sys.rename tmp (snapshot_path ~dir)

let truncate_journal ~dir =
  let oc =
    open_out_gen
      [ Open_wronly; Open_creat; Open_trunc; Open_binary ]
      0o644 (journal_path ~dir)
  in
  close_out_noerr oc

(* ------------------------------------------------------------------ *)
(* Restore                                                              *)
(* ------------------------------------------------------------------ *)

let read_file path =
  match open_in_bin path with
  | exception Sys_error _ -> ([], 0, 0)
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let records = ref [] and ok = ref 0 and skipped = ref 0 in
        (try
           while true do
             let line = input_line ic in
             if String.trim line <> "" then
               match Option.bind (unframe line) record_of_payload with
               | Some r ->
                 incr ok;
                 records := r :: !records
               | None -> incr skipped
           done
         with End_of_file -> ());
        (List.rev !records, !ok, !skipped))

let load ~dir =
  let snap, n1, s1 = read_file (snapshot_path ~dir) in
  let jour, n2, s2 = read_file (journal_path ~dir) in
  let programs : (string, program) Hashtbl.t = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun r ->
      match r with
      | Program p ->
        if not (Hashtbl.mem programs p.p_key) then
          order := p.p_key :: !order;
        Hashtbl.replace programs p.p_key p
      | Legacy_bank -> ())
    (snap @ jour);
  {
    r_programs =
      List.rev_map (fun k -> Hashtbl.find programs k) !order;
    r_records = n1 + n2;
    r_skipped = s1 + s2;
  }

let exists ~dir =
  Sys.file_exists (snapshot_path ~dir) || Sys.file_exists (journal_path ~dir)

(* ------------------------------------------------------------------ *)
(* Chaos helper                                                         *)
(* ------------------------------------------------------------------ *)

(* cut the journal mid-record: drop the trailing newline and the last
   few bytes of the final frame, exactly the shape an interrupted
   append leaves behind.  Returns false when there is nothing to tear *)
let tear_journal ~dir =
  let path = journal_path ~dir in
  match Unix.stat path with
  | exception Unix.Unix_error _ -> false
  | st when st.Unix.st_size < 8 -> false
  | st ->
    let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () ->
        Unix.ftruncate fd (st.Unix.st_size - 7);
        true)
