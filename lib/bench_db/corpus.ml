type repro = {
  rp_name : string;
  rp_origin : string;
  rp_heuristic : int;
  rp_facts : bool;
  rp_coalesce : bool;
  rp_train : string;
  rp_test : string;
  rp_program : Mir.Program.t;
}

let magic = "; bromc repro v1"

let heuristic_set = function
  | 0 -> Mopt.Switch_lower.set_i
  | 1 -> Mopt.Switch_lower.set_ii
  | _ -> Mopt.Switch_lower.set_iii

let heuristic_index name =
  match name with "I" -> Some 0 | "II" -> Some 1 | "III" -> Some 2 | _ -> None

(* header lines are read back trimmed, so the origin is stored that way *)
let single_line s =
  String.trim (String.map (function '\n' | '\r' -> ' ' | c -> c) s)

let of_spec ~name ~origin ~facts ~coalesce (spec : Check.Gen.spec) =
  {
    rp_name = name;
    rp_origin = single_line origin;
    rp_heuristic = spec.Check.Gen.sp_heuristic;
    rp_facts = facts;
    rp_coalesce = coalesce;
    rp_train = spec.Check.Gen.sp_train;
    rp_test = spec.Check.Gen.sp_test;
    rp_program = Check.Gen.to_program spec;
  }

(* ------------------------------------------------------------------ *)
(* File format                                                         *)
(* ------------------------------------------------------------------ *)

let to_text r =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (magic ^ "\n");
  Buffer.add_string buf ("; origin: " ^ r.rp_origin ^ "\n");
  Buffer.add_string buf
    ("; heuristic: " ^ (heuristic_set r.rp_heuristic).Mopt.Switch_lower.hs_name
    ^ "\n");
  Buffer.add_string buf
    (Printf.sprintf "; facts: %b\n; coalesce: %b\n" r.rp_facts r.rp_coalesce);
  Buffer.add_string buf ("; train: " ^ Json.escape_string r.rp_train ^ "\n");
  Buffer.add_string buf ("; test: " ^ Json.escape_string r.rp_test ^ "\n");
  Buffer.add_char buf '\n';
  Buffer.add_string buf (Format.asprintf "%a" Mir.Program.pp r.rp_program);
  Buffer.contents buf

let rec mkdir_p dir =
  if dir <> "." && dir <> "/" && dir <> "" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let save ~dir r =
  mkdir_p dir;
  let path = Filename.concat dir (r.rp_name ^ ".mir") in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (to_text r));
  path

let of_text ~name text =
  let ( let* ) = Result.bind in
  let lines = String.split_on_char '\n' text in
  match lines with
  | first :: rest when String.trim first = magic ->
    let header, body =
      let rec split acc = function
        | l :: tl when String.length (String.trim l) > 0
                       && (String.trim l).[0] = ';' ->
          split (String.trim l :: acc) tl
        | tl -> (List.rev acc, tl)
      in
      split [] rest
    in
    (* [l] is trimmed, so an empty value has lost the space after ':' *)
    let field key =
      let prefix = "; " ^ key ^ ":" in
      List.find_map
        (fun l ->
          if String.starts_with ~prefix l then
            Some
              (String.trim
                 (String.sub l (String.length prefix)
                    (String.length l - String.length prefix)))
          else None)
        header
    in
    let require key =
      match field key with
      | Some v -> Ok v
      | None -> Error (Printf.sprintf "missing header field %S" key)
    in
    let quoted key =
      let* v = require key in
      match Json.unescape_string v with
      | Some s -> Ok s
      | None -> Error (Printf.sprintf "bad quoted header field %S" key)
    in
    let* origin = require "origin" in
    let* hname = require "heuristic" in
    let* heuristic =
      Option.to_result
        ~none:(Printf.sprintf "unknown heuristic set %S" hname)
        (heuristic_index hname)
    in
    let flag key =
      let* v = require key in
      match bool_of_string_opt v with
      | Some b -> Ok b
      | None ->
        Error (Printf.sprintf "header field %S must be true or false" key)
    in
    let* facts = flag "facts" in
    let* coalesce = flag "coalesce" in
    let* train = quoted "train" in
    let* test = quoted "test" in
    let* program =
      match Mir.Parse.program (String.concat "\n" body) with
      | p -> Ok p
      | exception Mir.Parse.Error (l, m) ->
        Error (Printf.sprintf "line %d: %s" l m)
    in
    Ok
      {
        rp_name = name;
        rp_origin = origin;
        rp_heuristic = heuristic;
        rp_facts = facts;
        rp_coalesce = coalesce;
        rp_train = train;
        rp_test = test;
        rp_program = program;
      }
  | _ -> Error "not a bromc repro file (missing magic header)"

let load_file path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error m -> Error m
  | text ->
    Result.map_error
      (fun m -> path ^ ": " ^ m)
      (of_text ~name:(Filename.remove_extension (Filename.basename path)) text)

let load_dir dir =
  match Sys.readdir dir with
  | exception Sys_error _ when not (Sys.file_exists dir) -> Ok []
  | exception Sys_error m -> Error m
  | entries ->
    let files =
      Array.to_list entries
      |> List.filter (fun f -> Filename.check_suffix f ".mir")
      |> List.sort compare
    in
    List.fold_left
      (fun acc f ->
        match acc with
        | Error _ as e -> e
        | Ok rs -> (
          match load_file (Filename.concat dir f) with
          | Ok r -> Ok (r :: rs)
          | Error _ as e -> e))
      (Ok []) files
    |> Result.map List.rev

(* ------------------------------------------------------------------ *)
(* Replay and minting                                                  *)
(* ------------------------------------------------------------------ *)

let replay ?backends ?profile r =
  Check.Fuzz.run_program ?backends ?profile
    ~facts:r.rp_facts ~coalesce:r.rp_coalesce
    ~heuristic:(heuristic_set r.rp_heuristic)
    ~train:r.rp_train ~test:r.rp_test r.rp_program

let mint_from_inject ?(backends = Check.Fuzz.default_backends) ~seed ~cases
    ~max () =
  let repros = ref [] in
  let minted = ref 0 in
  let case = ref 0 in
  while !minted < max && !case < cases do
    let c = !case in
    let spec = Check.Fuzz.spec_of_case ~seed ~case:c in
    let out = Check.Fuzz.run_case ~backends ~inject:true ~case:c spec in
    if out.Check.Fuzz.co_caught then begin
      let keep s =
        (Check.Fuzz.run_case ~backends ~inject:true ~case:c s)
          .Check.Fuzz.co_caught
      in
      let shrunk = Check.Gen.shrink_spec ~keep spec in
      incr minted;
      repros :=
        of_spec
          ~name:(Printf.sprintf "inject-wrong-default-s%d-c%03d" seed c)
          ~origin:
            (Printf.sprintf
               "fuzz --inject seed=%d case=%d: verifier rejected a planted \
                wrong default target; spec shrunk while the catch held"
               seed c)
          ~facts:(Check.Fuzz.case_facts c)
          ~coalesce:(Check.Fuzz.case_coalesce c)
          shrunk
        :: !repros
    end;
    incr case
  done;
  List.rev !repros

let mint_from_failure ~seed (f : Check.Fuzz.failure) =
  of_spec
    ~name:(Printf.sprintf "fuzz-failure-s%d-c%03d" seed f.Check.Fuzz.f_case)
    ~origin:
      (Printf.sprintf "fuzz seed=%d case=%d: %s" seed f.Check.Fuzz.f_case
         (match f.Check.Fuzz.f_errors with e :: _ -> e | [] -> "failure"))
    ~facts:(Check.Fuzz.case_facts f.Check.Fuzz.f_case)
    ~coalesce:(Check.Fuzz.case_coalesce f.Check.Fuzz.f_case)
    f.Check.Fuzz.f_shrunk
