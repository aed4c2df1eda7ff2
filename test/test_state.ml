(* Durable serving state: CRC framing, per-program record files,
   damaged-record tolerance, and the readers' crash hardening. *)

open Helpers

let tmp_dir () =
  let d =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "bromc_state_%d_%d" (Unix.getpid ()) (Random.bits ()))
  in
  Unix.mkdir d 0o755;
  d

let rm_rf dir =
  let rec walk p =
    if Sys.is_directory p then begin
      Array.iter (fun f -> walk (Filename.concat p f)) (Sys.readdir p);
      Unix.rmdir p
    end
    else Sys.remove p
  in
  if Sys.file_exists dir then walk dir

let with_dir f =
  let dir = tmp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let program ~key ~name ?(generation = 1) ?(executions = 100)
    ?(last_opt = 50) () =
  {
    Driver.State.p_key = key;
    p_name = name;
    p_source = "int main() { return 0; }";
    p_generation = generation;
    p_signature = Printf.sprintf "sig-g%d" generation;
    p_executions = executions;
    p_last_opt_execs = last_opt;
    p_ranges = [ (0, [| 7; 3 |], executions); (1, [| 1; 2; 3 |], 6) ];
    p_combs = [ (0, [| 4 |], 4) ];
  }

(* ---------------------------------------------------------------- *)
(* CRC framing                                                       *)
(* ---------------------------------------------------------------- *)

let test_crc_frame_roundtrip () =
  (* IEEE 802.3 check value for the classic vector *)
  Alcotest.(check int)
    "crc32(\"123456789\") is the standard check value" 0xCBF43926
    (Driver.State.crc32 "123456789");
  List.iter
    (fun payload ->
      let framed = Driver.State.frame payload in
      check_bool "frame is a single line" true
        (not (String.contains framed '\n'));
      match Driver.State.unframe framed with
      | Some back -> check_output "unframe restores the payload" payload back
      | None -> Alcotest.fail "frame/unframe roundtrip failed")
    [ "x"; "{\"v\":1}"; String.make 4096 'z' ];
  (* a single flipped byte must fail the CRC, not parse as data *)
  let framed = Driver.State.frame "{\"v\":1,\"k\":\"abc\"}" in
  let b = Bytes.of_string framed in
  Bytes.set b (String.length framed - 2) 'X';
  check_bool "corrupted frame rejected" true
    (Driver.State.unframe (Bytes.to_string b) = None);
  check_bool "short garbage rejected" true (Driver.State.unframe "zzz" = None)

(* ---------------------------------------------------------------- *)
(* Record files                                                      *)
(* ---------------------------------------------------------------- *)

let test_write_replaces_record () =
  with_dir (fun dir ->
      let p1 = program ~key:"k1" ~name:"alpha" () in
      let p2 = program ~key:"k2" ~name:"beta" ~generation:3 () in
      Driver.State.write ~dir p1;
      Driver.State.write ~dir p2;
      (* a newer absolute record for k1 replaces the first *)
      let p1' = program ~key:"k1" ~name:"alpha" ~generation:2 ~executions:500 () in
      Driver.State.write ~dir p1';
      check_bool "one file per program, no tmp left behind" true
        (List.sort compare (Array.to_list (Sys.readdir dir))
        = [ "k1.rec"; "k2.rec" ]);
      check_output "record_path names the file"
        (Filename.concat dir "k1.rec")
        (Driver.State.record_path ~dir "k1");
      let r = Driver.State.load ~dir in
      check_int "no record skipped" 0 r.Driver.State.r_skipped;
      check_bool "the latest record of each program, in name order" true
        (r.Driver.State.r_programs = [ p1'; p2 ]))

let test_damaged_records_skipped () =
  with_dir (fun dir ->
      let p1 = program ~key:"k1" ~name:"alpha" () in
      let p2 = program ~key:"k2" ~name:"beta" ~generation:4 ~executions:900 () in
      let p3 = program ~key:"k3" ~name:"gamma" () in
      List.iter (Driver.State.write ~dir) [ p1; p2; p3 ];
      let put name bytes =
        Out_channel.with_open_bin (Filename.concat dir name) (fun oc ->
            output_string oc bytes)
      in
      (* a torn record: the first half of k2's file *)
      let whole =
        In_channel.with_open_bin (Driver.State.record_path ~dir "k2")
          In_channel.input_all
      in
      put "k2.rec" (String.sub whole 0 (String.length whole / 2));
      put "junk.rec" "\x00\x01\x02 total nonsense";
      put "empty.rec" "";
      Unix.mkdir (Filename.concat dir "dir.rec") 0o755;
      (* a whole record filed under another key's name *)
      put "k9.rec" whole;
      (* an interrupted write's tmp and unrelated files are not records *)
      put "k4.rec.tmp" "half a reco";
      put "notes.txt" "x";
      let r = Driver.State.load ~dir in
      check_int "torn, junk, empty, misfiled and directory skipped" 5
        r.Driver.State.r_skipped;
      check_bool "the other programs restore" true
        (r.Driver.State.r_programs = [ p1; p3 ]);
      check_int "a missing directory restores as empty" 0
        (List.length
           (Driver.State.load ~dir:(Filename.concat dir "absent"))
             .Driver.State.r_programs))

let test_prepare () =
  with_dir (fun dir ->
      let sub = Filename.concat (Filename.concat dir "a") "b" in
      Driver.State.prepare ~dir:sub;
      check_bool "prepare creates the directory and its parents" true
        (Sys.is_directory sub);
      Driver.State.prepare ~dir:sub;
      let file = Filename.concat dir "plain" in
      Out_channel.with_open_bin file (fun oc -> output_string oc "x");
      match Driver.State.prepare ~dir:file with
      | () -> Alcotest.fail "a file is not a state dir"
      | exception Sys_error m ->
        check_output "a file is refused" (file ^ ": not a directory") m)

(* ---------------------------------------------------------------- *)
(* Readers are total on arbitrary bytes                                *)
(* ---------------------------------------------------------------- *)

(* a \u escape with no hex digits once made the JSON reader raise
   [Failure "int_of_string"], which slipped past the damaged-record
   handler and, inside a CRC-valid frame, out of [State.load] *)
let bad_unicode = {|{"a": "\uzzzz"}|}

(* one frame per record file, [f0.rec], [f1.rec], ... *)
let write_frames dir payloads =
  List.iteri
    (fun i p ->
      Out_channel.with_open_bin
        (Filename.concat dir (Printf.sprintf "f%d.rec" i))
        (fun oc ->
          output_string oc (Driver.State.frame p);
          output_char oc '\n'))
    payloads

let test_bad_escape_is_a_parse_error () =
  (match Json.parse bad_unicode with
  | _ -> Alcotest.fail "a bad \\u escape must not parse"
  | exception Json.Parse_error _ -> ());
  with_dir (fun dir ->
      write_frames dir
        [ {|{"t": "program", "v": 1, "key": "\uzzzz"}|}; bad_unicode ];
      Driver.State.write ~dir (program ~key:"k1" ~name:"alpha" ());
      let r = Driver.State.load ~dir in
      check_int "bad frames skipped" 2 r.Driver.State.r_skipped;
      check_int "the good record still restores" 1
        (List.length r.Driver.State.r_programs))

(* random bytes, heavy on the characters that steer a JSON reader *)
let jsonish =
  let open QCheck.Gen in
  let punct =
    oneofl
      [ '{'; '}'; '['; ']'; '"'; '\\'; ':'; ','; 'u'; 'n'; 't'; '0'; '9';
        '-'; '.'; 'e'; ' '; 'D'; 'a' ]
  in
  let body = string_size ~gen:(frequency [ (4, punct); (1, char) ]) (0 -- 40) in
  let doc =
    frequency
      [
        (1, body);
        (2, map (fun b -> "{\"k\": " ^ b) body);
        (2, map (fun b -> "{\"label\": \"" ^ b ^ "\"}") body);
        (1, return bad_unicode);
      ]
  in
  QCheck.make ~print:(Printf.sprintf "%S") doc

let parse_raises_only_parse_error =
  qcheck ~count:1000 "json: parse raises only Parse_error" jsonish (fun s ->
      match Json.parse s with
      | _ -> true
      | exception Json.Parse_error _ -> true)

let state_load_is_total =
  qcheck ~count:200 "state: load on framed arbitrary payloads never raises"
    (QCheck.list_of_size (QCheck.Gen.int_range 1 6) jsonish)
    (fun payloads ->
      (* a frame is one line; the payload itself may hold anything else *)
      let payloads = List.map (String.map (function '\n' -> ' ' | c -> c)) payloads in
      with_dir (fun dir ->
          write_frames dir payloads;
          let r = Driver.State.load ~dir in
          List.length r.Driver.State.r_programs + r.Driver.State.r_skipped
          = List.length payloads))

(* lines in the spaced format earlier releases wrote, pinned verbatim:
   JSON records and program records written then must still read back *)
let legacy_spaced_line =
  {|{"id": 4, "label": "a \"quoted\"\nlabel", "status": "crash", "message": "tab\there", "attempts": 3, "retried": 2, "backend": "compiled", "degraded": true, "injected": "raise", "wall_ms": 12.500}|}

let legacy_record =
  {|a2df6da5 {"t": "program", "v": 1, "key": "k1", "name": "alpha", "source": "int main() {\n\tputs(\"a\\\\b\");\n}", "drift": "v1 g3 e100 sig-g3", "last_opt": 50, "ranges": "0:100:7,3;1:6:1,2,3", "combs": "0:4:4"}|}

let test_legacy_lines_read_back () =
  let v =
    Json.Obj
      [
        ("id", Json.Int 4);
        ("label", Json.Str "a \"quoted\"\nlabel");
        ("status", Json.Str "crash");
        ("message", Json.Str "tab\there");
        ("attempts", Json.Int 3);
        ("retried", Json.Int 2);
        ("backend", Json.Str "compiled");
        ("degraded", Json.Bool true);
        ("injected", Json.Str "raise");
        ("wall_ms", Json.Float 12.5);
      ]
  in
  check_bool "legacy spaced line reads back exactly" true
    (Json.equal (Json.parse legacy_spaced_line) v);
  check_bool "new lines are compact" true
    (contains_substring (Json.to_string v) {|,"wall_ms":12.5}|});
  with_dir (fun dir ->
      Out_channel.with_open_bin (Driver.State.record_path ~dir "k1") (fun oc ->
          output_string oc (legacy_record ^ "\n"));
      let r = Driver.State.load ~dir in
      check_int "the legacy record is not skipped" 0 r.Driver.State.r_skipped;
      check_bool "legacy program record reads back exactly" true
        (r.Driver.State.r_programs
        = [
            {
              (program ~key:"k1" ~name:"alpha" ~generation:3 ()) with
              Driver.State.p_source = "int main() {\n\tputs(\"a\\\\b\");\n}";
            };
          ]))

(* ---------------------------------------------------------------- *)
(* Chaos plans                                                       *)
(* ---------------------------------------------------------------- *)

let test_server_plan () =
  let p1 = Driver.Inject.server_plan ~seed:9 ~requests:200 ~count:10 in
  let p2 = Driver.Inject.server_plan ~seed:9 ~requests:200 ~count:10 in
  check_bool "deterministic in the seed" true (p1 = p2);
  Alcotest.(check int) "requested count" 10 (List.length p1);
  let victims = List.map (fun f -> f.Driver.Inject.sv_request) p1 in
  Alcotest.(check int) "distinct victims" 10
    (List.length (List.sort_uniq compare victims));
  check_bool "victims in range" true
    (List.for_all (fun r -> r >= 0 && r < 200) victims);
  check_bool "sorted by request index" true
    (List.sort compare victims = victims);
  let kinds =
    List.sort_uniq compare (List.map (fun f -> f.Driver.Inject.sv_kind) p1)
  in
  Alcotest.(check int) "all five kinds appear at count 10" 5
    (List.length kinds);
  let p3 = Driver.Inject.server_plan ~seed:10 ~requests:200 ~count:10 in
  check_bool "different seed, different victims" true (p1 <> p3);
  Alcotest.(check int) "count clamped to the stream" 3
    (List.length (Driver.Inject.server_plan ~seed:1 ~requests:3 ~count:99));
  check_bool "empty stream, empty plan" true
    (Driver.Inject.server_plan ~seed:1 ~requests:0 ~count:5 = [])

let suite =
  [
    case "state: CRC-32 framing roundtrip and rejection"
      test_crc_frame_roundtrip;
    case "state: a write replaces its program's record file"
      test_write_replaces_record;
    case "state: damaged records skipped, other files ignored"
      test_damaged_records_skipped;
    case "state: prepare creates the directory, refuses a file"
      test_prepare;
    case "readers: a bad \\u escape is a parse error, never a Failure"
      test_bad_escape_is_a_parse_error;
    parse_raises_only_parse_error;
    state_load_is_total;
    case "readers: legacy spaced JSON and record lines read back"
      test_legacy_lines_read_back;
    case "inject: server chaos plans are seeded and exhaustive"
      test_server_plan;
  ]
