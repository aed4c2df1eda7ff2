(* Durable serving state: CRC framing, journal + snapshot roundtrips,
   torn-tail tolerance, and the readers' crash hardening. *)

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
(* Journal roundtrip and last-record-wins                            *)
(* ---------------------------------------------------------------- *)

let test_journal_roundtrip () =
  with_dir (fun dir ->
      check_bool "no state yet" false (Driver.State.exists ~dir);
      let w = Driver.State.open_journal ~dir in
      let p1 = program ~key:"k1" ~name:"alpha" () in
      let p2 = program ~key:"k2" ~name:"beta" ~generation:3 () in
      Driver.State.journal_program w p1;
      Driver.State.journal_program w p2;
      (* a newer absolute record for k1 supersedes the first *)
      let p1' = program ~key:"k1" ~name:"alpha" ~generation:2 ~executions:500 () in
      Driver.State.journal_program w p1';
      Alcotest.(check int) "appended counts records" 3 (Driver.State.appended w);
      Driver.State.close_journal w;
      check_bool "state exists now" true (Driver.State.exists ~dir);
      let r = Driver.State.load ~dir in
      Alcotest.(check int) "no frames skipped" 0 r.Driver.State.r_skipped;
      Alcotest.(check int) "two distinct programs" 2
        (List.length r.Driver.State.r_programs);
      let k1 =
        List.find
          (fun p -> p.Driver.State.p_key = "k1")
          r.Driver.State.r_programs
      in
      Alcotest.(check int) "last record wins: generation" 2
        k1.Driver.State.p_generation;
      Alcotest.(check int) "last record wins: executions" 500
        k1.Driver.State.p_executions;
      check_bool "counters roundtrip" true
        (k1.Driver.State.p_ranges = p1'.Driver.State.p_ranges
        && k1.Driver.State.p_combs = p1'.Driver.State.p_combs);
      let k2 =
        List.find
          (fun p -> p.Driver.State.p_key = "k2")
          r.Driver.State.r_programs
      in
      check_bool "untouched program intact" true (k2 = p2))

let test_torn_tail_tolerated () =
  with_dir (fun dir ->
      let w = Driver.State.open_journal ~dir in
      Driver.State.journal_program w (program ~key:"k1" ~name:"alpha" ());
      Driver.State.journal_program w
        (program ~key:"k2" ~name:"beta" ~generation:4 ~executions:900 ());
      Driver.State.close_journal w;
      check_bool "tear applies" true (Driver.State.tear_journal ~dir);
      let r = Driver.State.load ~dir in
      (* the torn final record is dropped; the first survives whole *)
      Alcotest.(check int) "torn frame counted as skipped" 1
        r.Driver.State.r_skipped;
      Alcotest.(check int) "prefix record survives" 1
        (List.length r.Driver.State.r_programs);
      check_output "the surviving record is the first" "k1"
        (List.hd r.Driver.State.r_programs).Driver.State.p_key)

(* the writer that tore (a live server's, in the chaos replay) keeps
   appending: its next record must not be glued to the torn fragment *)
let test_append_after_torn_tail () =
  with_dir (fun dir ->
      let w = Driver.State.open_journal ~dir in
      Driver.State.journal_program w (program ~key:"k1" ~name:"alpha" ());
      Driver.State.journal_program w (program ~key:"k2" ~name:"beta" ());
      check_bool "tear applies" true (Driver.State.tear_journal ~dir);
      Driver.State.journal_program w
        (program ~key:"k3" ~name:"gamma" ~generation:2 ());
      Driver.State.close_journal w;
      let r = Driver.State.load ~dir in
      Alcotest.(check int) "only the torn frame is skipped" 1
        r.Driver.State.r_skipped;
      check_bool "the records around the tear survive" true
        (List.map (fun p -> p.Driver.State.p_key) r.Driver.State.r_programs
        = [ "k1"; "k3" ]))

let test_garbage_never_raises () =
  with_dir (fun dir ->
      (* hole torn mid-file: garbage between two valid records *)
      let w = Driver.State.open_journal ~dir in
      Driver.State.journal_program w (program ~key:"k1" ~name:"alpha" ());
      Driver.State.close_journal w;
      let oc =
        open_out_gen [ Open_append ] 0o644 (Driver.State.journal_path ~dir)
      in
      output_string oc "deadbeef {not json}\n\n08x nope\n";
      close_out oc;
      let w = Driver.State.open_journal ~dir in
      Driver.State.journal_program w
        (program ~key:"k2" ~name:"beta" ~generation:2 ());
      Driver.State.close_journal w;
      let r = Driver.State.load ~dir in
      Alcotest.(check int) "damaged frames skipped, not fatal" 2
        r.Driver.State.r_skipped;
      Alcotest.(check int) "records on both sides survive" 2
        (List.length r.Driver.State.r_programs);
      (* an unreadable snapshot restores as empty, never raises *)
      let oc = open_out (Driver.State.snapshot_path ~dir) in
      output_string oc "\x00\x01\x02 total nonsense";
      close_out oc;
      let r = Driver.State.load ~dir in
      Alcotest.(check int) "journal still restores past a junk snapshot" 2
        (List.length r.Driver.State.r_programs))

(* ---------------------------------------------------------------- *)
(* Snapshots                                                         *)
(* ---------------------------------------------------------------- *)

let test_snapshot_compacts_journal () =
  with_dir (fun dir ->
      let w = Driver.State.open_journal ~dir in
      Driver.State.journal_program w (program ~key:"k1" ~name:"alpha" ());
      Driver.State.close_journal w;
      (* snapshot the superseding state, then truncate the journal *)
      let p1' = program ~key:"k1" ~name:"alpha" ~generation:5 ~executions:777 () in
      Driver.State.write_snapshot ~dir [ p1' ];
      (* before the truncate, load sees snapshot then stale journal:
         the journal's k1 record is older but still *absolute*, so the
         snapshot must not lose to it only when the journal is empty.
         Truncate-after-rename is the contract. *)
      Driver.State.truncate_journal ~dir;
      let r = Driver.State.load ~dir in
      Alcotest.(check int) "one program" 1
        (List.length r.Driver.State.r_programs);
      let k1 = List.hd r.Driver.State.r_programs in
      Alcotest.(check int) "snapshot state restored" 5
        k1.Driver.State.p_generation;
      Alcotest.(check int) "snapshot executions restored" 777
        k1.Driver.State.p_executions;
      (* journal records appended after the snapshot win over it *)
      let w = Driver.State.open_journal ~dir in
      Driver.State.journal_program w
        (program ~key:"k1" ~name:"alpha" ~generation:6 ~executions:800 ());
      Driver.State.close_journal w;
      let r = Driver.State.load ~dir in
      Alcotest.(check int) "journal beats snapshot" 6
        (List.hd r.Driver.State.r_programs).Driver.State.p_generation;
      (* no tmp file left behind by the atomic rename *)
      check_bool "no snapshot.tmp residue" false
        (Sys.file_exists (Driver.State.snapshot_path ~dir ^ ".tmp")))

(* ---------------------------------------------------------------- *)
(* Readers are total on arbitrary bytes                                *)
(* ---------------------------------------------------------------- *)

(* a \u escape with no hex digits once made the JSON reader raise
   [Failure "int_of_string"], which slipped past the torn-tail handler
   and, inside a CRC-valid journal frame, out of [State.load] *)
let bad_unicode = {|{"a": "\uzzzz"}|}

let write_frames dir payloads =
  let oc = open_out_bin (Driver.State.journal_path ~dir) in
  List.iter
    (fun p ->
      output_string oc (Driver.State.frame p);
      output_char oc '\n')
    payloads;
  close_out oc

let test_bad_escape_is_a_parse_error () =
  (match Json.parse bad_unicode with
  | _ -> Alcotest.fail "a bad \\u escape must not parse"
  | exception Json.Parse_error _ -> ());
  with_dir (fun dir ->
      write_frames dir
        [
          {|{"t": "program", "v": 1, "key": "\uzzzz"}|};
          bad_unicode;
          Printf.sprintf {|{"t": "bank", "v": %d, "tallies": ""}|}
            Driver.State.version;
        ];
      let r = Driver.State.load ~dir in
      check_int "bad frames skipped" 2 r.Driver.State.r_skipped;
      check_int "the good frame still restores" 1 r.Driver.State.r_records)

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
          r.Driver.State.r_records + r.Driver.State.r_skipped
          = List.length payloads))

(* lines in the spaced format earlier releases wrote, pinned verbatim:
   JSON records and state directories written then must still read back *)
let legacy_spaced_line =
  {|{"id": 4, "label": "a \"quoted\"\nlabel", "status": "crash", "message": "tab\there", "attempts": 3, "retried": 2, "backend": "compiled", "degraded": true, "injected": "raise", "wall_ms": 12.500}|}

let legacy_journal =
  [
    {|a2df6da5 {"t": "program", "v": 1, "key": "k1", "name": "alpha", "source": "int main() {\n\tputs(\"a\\\\b\");\n}", "drift": "v1 g3 e100 sig-g3", "last_opt": 50, "ranges": "0:100:7,3;1:6:1,2,3", "combs": "0:4:4"}|};
    {|cb6a8ddf {"t": "bank", "v": 1, "tallies": "2.2.64:1000:37"}|};
  ]

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
      let oc = open_out_bin (Driver.State.journal_path ~dir) in
      List.iter (fun l -> output_string oc (l ^ "\n")) legacy_journal;
      close_out oc;
      let r = Driver.State.load ~dir in
      check_int "no legacy frame skipped" 0 r.Driver.State.r_skipped;
      check_int "the bank frame is read and dropped" 2
        r.Driver.State.r_records;
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
    case "state: journal roundtrip, last record wins" test_journal_roundtrip;
    case "state: torn tail dropped, prefix survives" test_torn_tail_tolerated;
    case "state: a record appended after a tear survives"
      test_append_after_torn_tail;
    case "state: damaged frames and junk snapshots never raise"
      test_garbage_never_raises;
    case "state: snapshot compacts, journal beats snapshot"
      test_snapshot_compacts_journal;
    case "readers: a bad \\u escape is a parse error, never a Failure"
      test_bad_escape_is_a_parse_error;
    parse_raises_only_parse_error;
    state_load_is_total;
    case "readers: legacy spaced JSON and journal lines read back"
      test_legacy_lines_read_back;
    case "inject: server chaos plans are seeded and exhaustive"
      test_server_plan;
  ]
