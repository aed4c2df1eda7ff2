(* The dependency-free JSON codec behind the serving journal, replay
   records, lint --json and the repro headers. *)

open Helpers

let json =
  Alcotest.testable (Fmt.of_to_string (Json.to_string ~compact:true)) Json.equal

(* arbitrary bytes, quotes, backslashes and control characters included *)
let gen_string = QCheck2.Gen.(string_size ~gen:char (int_range 0 16))

let gen_value =
  let open QCheck2.Gen in
  let finite f = if Float.is_finite f then f else 0. in
  let scalar =
    oneof
      [
        pure Json.Null;
        map (fun b -> Json.Bool b) bool;
        map (fun n -> Json.Int n) int;
        map (fun f -> Json.Float (finite f)) float;
        map (fun s -> Json.Str s) gen_string;
      ]
  in
  sized
  @@ fix (fun self n ->
         if n <= 1 then scalar
         else
           let sub = self (n / 4) in
           frequency
             [
               (3, scalar);
               (1, map (fun l -> Json.Arr l) (list_size (int_range 0 4) sub));
               ( 1,
                 map
                   (fun l -> Json.Obj l)
                   (list_size (int_range 0 4) (pair gen_string sub)) );
             ])

let prop_escape_roundtrip =
  qcheck2 ~count:500 ~print:String.escaped
    "json: unescape_string inverts escape_string" gen_string (fun s ->
      Json.unescape_string (Json.escape_string s) = Some s)

let prop_print_parse_roundtrip =
  qcheck2 ~count:300 ~print:(Json.to_string ~compact:true)
    "json: parse inverts to_string, compact and indented" gen_value (fun v ->
      Json.equal v (Json.parse (Json.to_string ~compact:true v))
      && Json.equal v (Json.parse (Json.to_string ~compact:false v)))

let test_number_lexemes () =
  check_output "an integral lexeme prints back as written" {|{"n":34}|}
    (Json.to_string (Json.parse {|{"n": 34}|}));
  Alcotest.check json "34 is an Int" (Json.Int 34) (Json.parse "34");
  check_output "a float keeps its point" "2.0" (Json.to_string (Json.Float 2.));
  check_output "a fraction prints shortest" "0.1"
    (Json.to_string (Json.Float 0.1));
  check_bool "Int n equals Float n" true
    (Json.equal (Json.Int 3) (Json.Float 3.))

(* the reader is total: malformed bytes are a Parse_error, never another
   exception, and the string reader answers None *)
let test_malformed_input () =
  List.iter
    (fun src ->
      match Json.parse src with
      | v -> Alcotest.failf "%S parsed as %s" src (Json.to_string v)
      | exception Json.Parse_error _ -> ())
    [
      "";
      "{} x";
      {|"unterminated|};
      {|"bad \q escape"|};
      {|"\u12"|};
      "[1,,2]";
      {|{"k" 1}|};
      "tru";
      "-";
      String.make 600 '[' ^ String.make 600 ']';
    ];
  List.iter
    (fun s ->
      Alcotest.(check (option string))
        (Printf.sprintf "unescape_string %S" s)
        None (Json.unescape_string s))
    [ "plain"; {|"open|}; "42"; {|"a" "b"|} ]

let test_unicode_escapes () =
  Alcotest.check json "BMP escape" (Json.Str "\xc3\xa9")
    (Json.parse {|"\u00e9"|});
  Alcotest.check json "surrogate pair" (Json.Str "\xf0\x9f\x98\x80")
    (Json.parse {|"\ud83d\ude00"|});
  match Json.parse {|"\ud83d\u0041"|} with
  | v ->
    Alcotest.failf "a high surrogate before \\u0041 parsed as %s"
      (Json.to_string v)
  | exception Json.Parse_error m ->
    check_bool ("error says why: " ^ m) true
      (contains_substring m "unpaired surrogate")

let test_accessors () =
  let v = Json.parse {|{"a": 1, "b": [true, null], "c": "s", "d": 1.5}|} in
  Alcotest.(check (option int)) "int member" (Some 1)
    (Option.bind (Json.member "a" v) Json.int);
  Alcotest.(check (option (float 0.))) "num widens an Int" (Some 1.)
    (Option.bind (Json.member "a" v) Json.num);
  Alcotest.(check (option (float 0.))) "num reads a Float" (Some 1.5)
    (Option.bind (Json.member "d" v) Json.num);
  Alcotest.(check (option string)) "str member" (Some "s")
    (Option.bind (Json.member "c" v) Json.str);
  Alcotest.(check (option int)) "array length" (Some 2)
    (Option.map List.length (Option.bind (Json.member "b" v) Json.arr));
  Alcotest.(check (option int)) "shape mismatch is None" None
    (Option.bind (Json.member "c" v) Json.int);
  Alcotest.(check (option int)) "member of a non-object is None" None
    (Option.bind (Json.member "a" (Json.Arr [])) Json.int)

let suite =
  [
    prop_escape_roundtrip;
    prop_print_parse_roundtrip;
    case "json: integral numbers keep their lexeme" test_number_lexemes;
    case "json: malformed input is a Parse_error" test_malformed_input;
    case "json: \\u escapes decode to UTF-8" test_unicode_escapes;
    case "json: accessors are total" test_accessors;
  ]
