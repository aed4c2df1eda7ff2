type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)
(* ------------------------------------------------------------------ *)

type state = { src : string; mutable pos : int }

let error st fmt =
  Printf.ksprintf
    (fun m ->
      let line = 1 + String.fold_left
        (fun acc c -> if c = '\n' then acc + 1 else acc)
        0 (String.sub st.src 0 (min st.pos (String.length st.src)))
      in
      raise (Parse_error (Printf.sprintf "line %d: %s" line m)))
    fmt

let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let skip_ws st =
  while
    st.pos < String.length st.src
    && (match st.src.[st.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
  do
    st.pos <- st.pos + 1
  done

let expect st c =
  skip_ws st;
  match peek st with
  | Some c' when c' = c -> st.pos <- st.pos + 1
  | Some c' -> error st "expected %c, found %c" c c'
  | None -> error st "expected %c, found end of input" c

let literal st word value =
  let n = String.length word in
  if
    st.pos + n <= String.length st.src
    && String.sub st.src st.pos n = word
  then begin
    st.pos <- st.pos + n;
    value
  end
  else error st "bad literal"

(* UTF-8 encode one scalar value (surrogate pairs are handled by the
   caller) *)
let add_utf8 b code =
  if code < 0x80 then Buffer.add_char b (Char.chr code)
  else if code < 0x800 then begin
    Buffer.add_char b (Char.chr (0xC0 lor (code lsr 6)));
    Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
  end
  else if code < 0x10000 then begin
    Buffer.add_char b (Char.chr (0xE0 lor (code lsr 12)));
    Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
  end
  else begin
    Buffer.add_char b (Char.chr (0xF0 lor (code lsr 18)));
    Buffer.add_char b (Char.chr (0x80 lor ((code lsr 12) land 0x3F)));
    Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
  end

let parse_hex4 st =
  if st.pos + 4 > String.length st.src then error st "short \\u escape";
  let s = String.sub st.src st.pos 4 in
  match int_of_string_opt ("0x" ^ s) with
  | Some code ->
    st.pos <- st.pos + 4;
    code
  | None -> error st "bad \\u escape %S" s

let parse_string st =
  expect st '"';
  let b = Buffer.create 16 in
  let rec go () =
    match peek st with
    | None -> error st "unterminated string"
    | Some '"' -> st.pos <- st.pos + 1
    | Some '\\' ->
      st.pos <- st.pos + 1;
      (match peek st with
      | None -> error st "dangling escape"
      | Some c ->
        st.pos <- st.pos + 1;
        (match c with
        | '"' -> Buffer.add_char b '"'
        | '\\' -> Buffer.add_char b '\\'
        | '/' -> Buffer.add_char b '/'
        | 'b' -> Buffer.add_char b '\b'
        | 'f' -> Buffer.add_char b '\012'
        | 'n' -> Buffer.add_char b '\n'
        | 'r' -> Buffer.add_char b '\r'
        | 't' -> Buffer.add_char b '\t'
        | 'u' ->
          let code = parse_hex4 st in
          let code =
            (* high surrogate followed by \uDCxx low surrogate *)
            if code >= 0xD800 && code <= 0xDBFF
               && st.pos + 6 <= String.length st.src
               && st.src.[st.pos] = '\\' && st.src.[st.pos + 1] = 'u'
            then begin
              st.pos <- st.pos + 2;
              let low = parse_hex4 st in
              if low >= 0xDC00 && low <= 0xDFFF then
                0x10000 + ((code - 0xD800) lsl 10) + (low - 0xDC00)
              else error st "unpaired surrogate"
            end
            else code
          in
          add_utf8 b code
        | c -> error st "unknown escape \\%c" c));
      go ()
    | Some c ->
      Buffer.add_char b c;
      st.pos <- st.pos + 1;
      go ()
  in
  go ();
  Buffer.contents b

let parse_number st =
  let start = st.pos in
  let is_num c =
    match c with
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while st.pos < String.length st.src && is_num st.src.[st.pos] do
    st.pos <- st.pos + 1
  done;
  let lexeme = String.sub st.src start (st.pos - start) in
  match int_of_string_opt lexeme with
  | Some n -> Int n
  | None -> (
    match float_of_string_opt lexeme with
    | Some f -> Float f
    | None -> error st "bad number %S" lexeme)

(* far beyond any document this repo writes, and shallow enough that
   hostile input cannot exhaust the stack: the reader stays total *)
let max_depth = 512

let rec parse_value ?(depth = 0) st =
  if depth > max_depth then error st "nested deeper than %d" max_depth;
  skip_ws st;
  match peek st with
  | None -> error st "expected a value, found end of input"
  | Some '"' -> Str (parse_string st)
  | Some '{' ->
    st.pos <- st.pos + 1;
    skip_ws st;
    if peek st = Some '}' then begin
      st.pos <- st.pos + 1;
      Obj []
    end
    else begin
      let fields = ref [] in
      let continue = ref true in
      while !continue do
        skip_ws st;
        let key = parse_string st in
        expect st ':';
        let v = parse_value ~depth:(depth + 1) st in
        fields := (key, v) :: !fields;
        skip_ws st;
        match peek st with
        | Some ',' -> st.pos <- st.pos + 1
        | Some '}' ->
          st.pos <- st.pos + 1;
          continue := false
        | _ -> error st "expected , or } in object"
      done;
      Obj (List.rev !fields)
    end
  | Some '[' ->
    st.pos <- st.pos + 1;
    skip_ws st;
    if peek st = Some ']' then begin
      st.pos <- st.pos + 1;
      Arr []
    end
    else begin
      let items = ref [] in
      let continue = ref true in
      while !continue do
        let v = parse_value ~depth:(depth + 1) st in
        items := v :: !items;
        skip_ws st;
        match peek st with
        | Some ',' -> st.pos <- st.pos + 1
        | Some ']' ->
          st.pos <- st.pos + 1;
          continue := false
        | _ -> error st "expected , or ] in array"
      done;
      Arr (List.rev !items)
    end
  | Some 't' -> literal st "true" (Bool true)
  | Some 'f' -> literal st "false" (Bool false)
  | Some 'n' -> literal st "null" Null
  | Some ('-' | '0' .. '9') -> parse_number st
  | Some c -> error st "unexpected character %c" c

let parse src =
  let st = { src; pos = 0 } in
  let v = parse_value st in
  skip_ws st;
  if st.pos <> String.length src then error st "trailing garbage";
  v

let parse_file path =
  let ic = open_in_bin path in
  let src =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  parse src

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

let escape_into b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 32 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let escape_string s =
  let b = Buffer.create (String.length s + 8) in
  escape_into b s;
  Buffer.contents b

let unescape_string s =
  match parse s with Str v -> Some v | _ | (exception Parse_error _) -> None

let float_lexeme f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.1f" f (* keep the float-ness: 2.0, not 2 *)
  else
    (* shortest lexeme that round-trips *)
    let s = Printf.sprintf "%.12g" f in
    if float_of_string s = f then s else Printf.sprintf "%.17g" f

let to_string ?(compact = true) v =
  let b = Buffer.create 256 in
  let rec go indent v =
    let nl i =
      if not compact then begin
        Buffer.add_char b '\n';
        Buffer.add_string b (String.make i ' ')
      end
    in
    match v with
    | Null -> Buffer.add_string b "null"
    | Bool x -> Buffer.add_string b (if x then "true" else "false")
    | Int n -> Buffer.add_string b (string_of_int n)
    | Float f -> Buffer.add_string b (float_lexeme f)
    | Str s -> escape_into b s
    | Arr [] -> Buffer.add_string b "[]"
    | Arr items ->
      Buffer.add_char b '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char b ',';
          nl (indent + 2);
          go (indent + 2) v)
        items;
      nl indent;
      Buffer.add_char b ']'
    | Obj [] -> Buffer.add_string b "{}"
    | Obj fields ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          nl (indent + 2);
          escape_into b k;
          Buffer.add_char b ':';
          if not compact then Buffer.add_char b ' ';
          go (indent + 2) v)
        fields;
      nl indent;
      Buffer.add_char b '}'
  in
  go 0 v;
  Buffer.contents b

let rec equal a b =
  match (a, b) with
  | Null, Null -> true
  | Bool x, Bool y -> x = y
  | Int x, Int y -> x = y
  | Float x, Float y -> x = y
  | Int x, Float y | Float y, Int x -> float_of_int x = y
  | Str x, Str y -> String.equal x y
  | Arr x, Arr y -> List.length x = List.length y && List.for_all2 equal x y
  | Obj x, Obj y ->
    List.length x = List.length y
    && List.for_all2
         (fun (k1, v1) (k2, v2) -> String.equal k1 k2 && equal v1 v2)
         x y
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Accessors                                                           *)
(* ------------------------------------------------------------------ *)

let member k = function Obj fields -> List.assoc_opt k fields | _ -> None
let str = function Str s -> Some s | _ -> None

let num = function
  | Int n -> Some (float_of_int n)
  | Float f -> Some f
  | _ -> None

let int = function Int n -> Some n | _ -> None
let bool = function Bool b -> Some b | _ -> None
let arr = function Arr items -> Some items | _ -> None
let obj = function Obj fields -> Some fields | _ -> None
