(* The minimized-repro corpus: the repro file format, its strict header
   reader, and the committed repros replaying green. *)

module C = Check.Corpus

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let seed_repro = "../corpus/inject-wrong-default-s42-c000.mir"

let test_mir_full_line_comments () =
  let prog =
    Mir.Parse.program
      "; a full-line comment\nfunction main():\nmain.entry:\n  ret 0\n"
  in
  Alcotest.(check int) "one function" 1 (List.length prog.Mir.Program.funcs)

let test_corpus_roundtrip () =
  let spec = Check.Fuzz.spec_of_case ~seed:7 ~case:3 in
  let r =
    C.of_spec ~name:"roundtrip" ~origin:"unit test"
      ~facts:(Check.Fuzz.case_facts 3) ~coalesce:(Check.Fuzz.case_coalesce 3)
      spec
  in
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "bromc-corpus-test" in
  let path = C.save ~dir r in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      match C.load_file path with
      | Error m -> Alcotest.fail m
      | Ok r' ->
        Alcotest.(check string) "origin" r.C.rp_origin r'.C.rp_origin;
        Alcotest.(check int) "heuristic" r.C.rp_heuristic r'.C.rp_heuristic;
        Alcotest.(check bool) "facts" r.C.rp_facts r'.C.rp_facts;
        Alcotest.(check bool) "coalesce" r.C.rp_coalesce r'.C.rp_coalesce;
        Alcotest.(check string) "train" r.C.rp_train r'.C.rp_train;
        Alcotest.(check string) "test" r.C.rp_test r'.C.rp_test;
        Alcotest.(check string) "program text"
          (Format.asprintf "%a" Mir.Program.pp r.C.rp_program)
          (Format.asprintf "%a" Mir.Program.pp r'.C.rp_program))

(* a header flag is [true] or [false]; anything else would silently
   replay the repro with the flag off *)
let test_corpus_flag_strict () =
  let lines = String.split_on_char '\n' (read_file seed_repro) in
  List.iter
    (fun key ->
      let prefix = "; " ^ key ^ ": " in
      let damaged =
        List.map
          (fun l ->
            if String.starts_with ~prefix l then prefix ^ "yes" else l)
          lines
      in
      let path = Filename.temp_file "bromc-corpus-flag" ".mir" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          let oc = open_out_bin path in
          output_string oc (String.concat "\n" damaged);
          close_out oc;
          match C.load_file path with
          | Ok r ->
            Alcotest.failf "%s: yes loaded as %b/%b" key r.C.rp_facts
              r.C.rp_coalesce
          | Error m ->
            Alcotest.(check bool)
              (key ^ " is named in " ^ m)
              true
              (Helpers.contains_substring m key)))
    [ "facts"; "coalesce" ]

(* a file where a directory belongs is an error value, not an escaping
   Sys_error *)
let test_corpus_dir_is_file () =
  match C.load_dir seed_repro with
  | Ok rs -> Alcotest.failf "a file loaded as a corpus of %d" (List.length rs)
  | Error m ->
    Alcotest.(check bool)
      ("error names the path: " ^ m)
      true
      (Helpers.contains_substring m seed_repro)

(* write [text] to a fresh temporary [.mir] file, load it, remove it *)
let load_text text =
  let path = Filename.temp_file "bromc-corpus" ".mir" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out_bin path in
      output_string oc text;
      close_out oc;
      C.load_file path)

let expect_error ~mentions what = function
  | Ok _ -> Alcotest.failf "%s loaded" what
  | Error m ->
    Alcotest.(check bool)
      (Printf.sprintf "%s: %S names %S" what m mentions)
      true
      (Helpers.contains_substring m mentions)

let seed_lines () = String.split_on_char '\n' (read_file seed_repro)

let test_corpus_missing_field () =
  List.iter
    (fun key ->
      let prefix = "; " ^ key ^ ": " in
      seed_lines ()
      |> List.filter (fun l -> not (String.starts_with ~prefix l))
      |> String.concat "\n" |> load_text
      |> expect_error ~mentions:key ("without " ^ key))
    [ "origin"; "heuristic"; "facts"; "coalesce"; "train"; "test" ]

let test_corpus_bad_header () =
  (match seed_lines () with
  | _magic :: rest ->
    load_text (String.concat "\n" rest)
    |> expect_error ~mentions:"magic" "no magic line"
  | [] -> Alcotest.fail "empty seed repro");
  let replace key value =
    let prefix = "; " ^ key ^ ": " in
    seed_lines ()
    |> List.map (fun l ->
           if String.starts_with ~prefix l then prefix ^ value else l)
    |> String.concat "\n" |> load_text
  in
  replace "heuristic" "IV"
  |> expect_error ~mentions:"IV" "an unknown heuristic set";
  replace "train" "unquoted"
  |> expect_error ~mentions:"train" "an unquoted training input"

let test_corpus_bad_body () =
  read_file seed_repro ^ "\nthis is not mir\n"
  |> load_text
  |> expect_error ~mentions:"line " "a MIR syntax error"

(* headers carry any bytes: origins fold onto one line, inputs are
   quoted *)
let prop_corpus_inputs_roundtrip =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ()) "bromc-corpus-prop"
  in
  Helpers.qcheck2 ~count:50
    ~print:(fun (o, tr, te) -> Printf.sprintf "%S %S %S" o tr te)
    "corpus: any origin and inputs survive save and load"
    QCheck2.Gen.(
      let s = string_size ~gen:char (int_range 0 24) in
      triple s s s)
    (fun (origin, train, test) ->
      let spec =
        {
          (Check.Fuzz.spec_of_case ~seed:3 ~case:1) with
          Check.Gen.sp_train = train;
          Check.Gen.sp_test = test;
        }
      in
      let r = C.of_spec ~name:"prop" ~origin ~facts:true ~coalesce:false spec in
      let path = C.save ~dir r in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          match C.load_file path with
          | Error m -> QCheck2.Test.fail_reportf "reload failed: %s" m
          | Ok r' ->
            (not (String.contains r.C.rp_origin '\n'))
            && r'.C.rp_origin = r.C.rp_origin
            && r'.C.rp_train = train && r'.C.rp_test = test))

let with_temp_dir f =
  let dir = Filename.temp_file "bromc-corpus-dir" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun f -> Sys.remove (Filename.concat dir f))
        (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () -> f dir)

let write_file path text =
  let oc = open_out_bin path in
  output_string oc text;
  close_out oc

let test_corpus_missing_dir_is_empty () =
  with_temp_dir (fun dir ->
      match C.load_dir (Filename.concat dir "absent") with
      | Ok rs -> Alcotest.(check int) "no repros" 0 (List.length rs)
      | Error m -> Alcotest.failf "a missing corpus is empty, got %s" m)

let test_corpus_dir_order () =
  let seed = read_file seed_repro in
  with_temp_dir (fun dir ->
      List.iter
        (fun f -> write_file (Filename.concat dir f) seed)
        [ "b.mir"; "a.mir"; "c.mir.bak" ];
      write_file (Filename.concat dir "notes.txt") "not a repro\n";
      match C.load_dir dir with
      | Error m -> Alcotest.fail m
      | Ok rs ->
        Alcotest.(check (list string))
          "only .mir files, sorted by name" [ "a"; "b" ]
          (List.map (fun r -> r.C.rp_name) rs))

let test_corpus_dir_first_bad_file () =
  let seed = read_file seed_repro in
  with_temp_dir (fun dir ->
      write_file (Filename.concat dir "a.mir") seed;
      write_file (Filename.concat dir "b.mir") "; not a repro\n";
      write_file (Filename.concat dir "c.mir") seed;
      C.load_dir dir
      |> expect_error ~mentions:"b.mir" "a corpus with b.mir bad")

(* minting is deterministic: the seeding command recreates the committed
   repro byte for byte *)
let test_corpus_mint_reproduces_seed () =
  match C.mint_from_inject ~seed:42 ~cases:1 ~max:1 () with
  | [ r ] ->
    with_temp_dir (fun dir ->
        let path = C.save ~dir r in
        Alcotest.(check string)
          (Filename.basename seed_repro ^ " is what minting writes")
          (read_file seed_repro) (read_file path))
  | rs -> Alcotest.failf "expected one minted repro, got %d" (List.length rs)

let test_corpus_mint_from_failure () =
  let spec = Check.Fuzz.spec_of_case ~seed:9 ~case:4 in
  let r =
    C.mint_from_failure ~seed:9
      {
        Check.Fuzz.f_case = 4;
        f_spec = spec;
        f_shrunk = spec;
        f_errors = [ "backend mismatch\non two lines"; "second error" ];
      }
  in
  Alcotest.(check string) "name" "fuzz-failure-s9-c004" r.C.rp_name;
  Alcotest.(check string)
    "origin names the first error on one line"
    "fuzz seed=9 case=4: backend mismatch on two lines" r.C.rp_origin;
  Alcotest.(check bool) "facts follow the case" (Check.Fuzz.case_facts 4)
    r.C.rp_facts;
  Alcotest.(check bool) "coalesce follows the case"
    (Check.Fuzz.case_coalesce 4) r.C.rp_coalesce

(* every committed repro replays green and byte-identical across the
   backends (native joins the race when the toolchain is present) *)
let test_corpus_replay () =
  match C.load_dir "../corpus" with
  | Error m -> Alcotest.fail m
  | Ok repros ->
    Alcotest.(check bool) "the corpus is seeded" true (List.length repros >= 2);
    let backends = Check.Fuzz.all_backends () in
    List.iter
      (fun (r : C.repro) ->
        let out = C.replay ~backends r in
        Alcotest.(check (list string))
          (r.C.rp_name ^ " replays green")
          [] out.Check.Fuzz.co_errors;
        Alcotest.(check bool)
          (r.C.rp_name ^ " still reorders something")
          true
          (out.Check.Fuzz.co_reordered + out.Check.Fuzz.co_coalesced > 0))
      repros

(* a replay is the fuzz case: a planted wrong default on a corpus
   program must still be caught when run in inject mode *)
let test_corpus_specs_still_catch_injection () =
  List.iter
    (fun case ->
      let spec =
        Check.Gen.shrink_spec
          ~keep:(fun s ->
            (Check.Fuzz.run_case ~backends:Check.Fuzz.default_backends
               ~inject:true ~case s)
              .Check.Fuzz.co_caught)
          (Check.Fuzz.spec_of_case ~seed:42 ~case)
      in
      let out =
        Check.Fuzz.run_case ~backends:Check.Fuzz.default_backends ~inject:true
          ~case spec
      in
      Alcotest.(check bool)
        (Printf.sprintf "case %d caught after shrinking" case)
        true out.Check.Fuzz.co_caught)
    [ 0 ]

let suite =
  [
    ("mir: full-line comments parse", `Quick, test_mir_full_line_comments);
    ("corpus: repro file roundtrips", `Quick, test_corpus_roundtrip);
    ("corpus: header flags are true or false", `Quick, test_corpus_flag_strict);
    ("corpus: a file is not a corpus dir", `Quick, test_corpus_dir_is_file);
    ( "corpus: a missing header field is named",
      `Quick,
      test_corpus_missing_field );
    ( "corpus: magic, heuristic and quoting are checked",
      `Quick,
      test_corpus_bad_header );
    ("corpus: a MIR syntax error has a line", `Quick, test_corpus_bad_body);
    prop_corpus_inputs_roundtrip;
    ( "corpus: a missing dir is an empty corpus",
      `Quick,
      test_corpus_missing_dir_is_empty );
    ("corpus: only .mir files, sorted by name", `Quick, test_corpus_dir_order);
    ( "corpus: the first bad file is named",
      `Quick,
      test_corpus_dir_first_bad_file );
    ( "corpus: minting recreates the committed seed",
      `Quick,
      test_corpus_mint_reproduces_seed );
    ( "corpus: a fuzz failure mints a named repro",
      `Quick,
      test_corpus_mint_from_failure );
    ("corpus: committed repros replay green", `Quick, test_corpus_replay);
    ( "corpus: shrunk specs still catch injection",
      `Quick,
      test_corpus_specs_still_catch_injection );
  ]
