exception Error of int * string

let fail line fmt = Printf.ksprintf (fun s -> raise (Error (line, s))) fmt

(* ------------------------------------------------------------------ *)
(* Small string utilities (the format is line oriented)                 *)
(* ------------------------------------------------------------------ *)

let strip s =
  let is_ws c = c = ' ' || c = '\t' || c = '\r' in
  let n = String.length s in
  let i = ref 0 and j = ref (n - 1) in
  while !i < n && is_ws s.[!i] do incr i done;
  while !j >= !i && is_ws s.[!j] do decr j done;
  if !j < !i then "" else String.sub s !i (!j - !i + 1)

let starts_with prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let drop_prefix prefix s = String.sub s (String.length prefix)
    (String.length s - String.length prefix)

let split_once sep s =
  match String.index_opt s sep with
  | Some i ->
    Some (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))
  | None -> None

let split_all sep s =
  String.split_on_char sep s |> List.map strip |> List.filter (fun x -> x <> "")

(* ------------------------------------------------------------------ *)
(* Operand / small-term parsing                                         *)
(* ------------------------------------------------------------------ *)

let parse_reg line s =
  let s = strip s in
  if String.length s >= 2 && s.[0] = 'r' then
    match int_of_string_opt (String.sub s 1 (String.length s - 1)) with
    | Some n when n >= 0 -> Reg.of_int n
    | _ -> fail line "bad register %S" s
  else fail line "bad register %S" s

let parse_operand line s =
  let s = strip s in
  if s = "" then fail line "empty operand"
  else if s.[0] = 'r' && String.length s > 1 && s.[1] >= '0' && s.[1] <= '9'
  then Operand.Reg (parse_reg line s)
  else
    match int_of_string_opt s with
    | Some n -> Operand.Imm n
    | None -> fail line "bad operand %S" s

let binop_of_name = function
  | "add" -> Some Insn.Add
  | "sub" -> Some Insn.Sub
  | "mul" -> Some Insn.Mul
  | "div" -> Some Insn.Div
  | "rem" -> Some Insn.Rem
  | "and" -> Some Insn.And
  | "or" -> Some Insn.Or
  | "xor" -> Some Insn.Xor
  | "sll" -> Some Insn.Shl
  | "sra" -> Some Insn.Shr
  | _ -> None

let unop_of_name = function
  | "neg" -> Some Insn.Neg
  | "not" -> Some Insn.Not
  | _ -> None

let cond_of_mnemonic = function
  | "be" -> Some Cond.Eq
  | "bne" -> Some Cond.Ne
  | "bl" -> Some Cond.Lt
  | "ble" -> Some Cond.Le
  | "bg" -> Some Cond.Gt
  | "bge" -> Some Cond.Ge
  | _ -> None

(* "f(a, b)" -> (f, [a; b]) *)
let parse_call_shape line s =
  match String.index_opt s '(' with
  | None -> fail line "expected a call, got %S" s
  | Some i ->
    let name = strip (String.sub s 0 i) in
    let rest = String.sub s (i + 1) (String.length s - i - 1) in
    if not (String.length rest > 0 && rest.[String.length rest - 1] = ')') then
      fail line "unterminated call %S" s;
    let args_str = String.sub rest 0 (String.length rest - 1) in
    let args = split_all ',' args_str |> List.map (parse_operand line) in
    (name, args)

(* "M[sym + idx]" -> (sym, idx) *)
let parse_mem line s =
  let s = strip s in
  if not (starts_with "M[" s && s.[String.length s - 1] = ']') then
    fail line "expected a memory reference, got %S" s;
  let inner = String.sub s 2 (String.length s - 3) in
  match split_once '+' inner with
  | Some (sym, idx) -> (strip sym, parse_operand line idx)
  | None -> fail line "bad memory reference %S" s

(* ------------------------------------------------------------------ *)
(* Instructions                                                         *)
(* ------------------------------------------------------------------ *)

let parse_insn line s =
  let s = strip s in
  if s = "nop" then Insn.Nop
  else if starts_with "cmp " s then begin
    match split_all ',' (drop_prefix "cmp " s) with
    | [ a; b ] -> Insn.Cmp (parse_operand line a, parse_operand line b)
    | _ -> fail line "bad cmp %S" s
  end
  else if starts_with "call " s then begin
    let name, args = parse_call_shape line (drop_prefix "call " s) in
    Insn.Call (None, name, args)
  end
  else if starts_with "profile_range #" s then begin
    match split_all ',' (drop_prefix "profile_range #" s) with
    | [ id; r ] -> (
      match int_of_string_opt id with
      | Some id -> Insn.Profile_range (id, parse_reg line r)
      | None -> fail line "bad profile id in %S" s)
    | _ -> fail line "bad profile_range %S" s
  end
  else if starts_with "profile_comb #" s then begin
    match int_of_string_opt (strip (drop_prefix "profile_comb #" s)) with
    | Some id -> Insn.Profile_comb id
    | None -> fail line "bad profile_comb %S" s
  end
  else if starts_with "M[" s then begin
    (* store: M[sym + idx] = v *)
    match split_once '=' s with
    | Some (lhs, rhs) ->
      let sym, idx = parse_mem line lhs in
      Insn.Store (sym, idx, parse_operand line rhs)
    | None -> fail line "bad store %S" s
  end
  else begin
    (* rN = <rhs> *)
    match split_once '=' s with
    | None -> fail line "unrecognised instruction %S" s
    | Some (lhs, rhs) ->
      let dst = parse_reg line lhs in
      let rhs = strip rhs in
      if starts_with "M[" rhs then begin
        let sym, idx = parse_mem line rhs in
        Insn.Load (dst, sym, idx)
      end
      else if starts_with "call " rhs then begin
        let name, args = parse_call_shape line (drop_prefix "call " rhs) in
        Insn.Call (Some dst, name, args)
      end
      else begin
        (* "op a, b" | "unop a" | plain operand *)
        match split_once ' ' rhs with
        | Some (head, rest) when binop_of_name head <> None -> (
          let op = Option.get (binop_of_name head) in
          match split_all ',' rest with
          | [ a; b ] ->
            Insn.Binop (op, dst, parse_operand line a, parse_operand line b)
          | _ -> fail line "bad binop %S" s)
        | Some (head, rest) when unop_of_name head <> None ->
          Insn.Unop (Option.get (unop_of_name head), dst, parse_operand line rest)
        | _ -> Insn.Mov (dst, parse_operand line rhs)
      end
  end

(* ------------------------------------------------------------------ *)
(* Terminators                                                          *)
(* ------------------------------------------------------------------ *)

(* returns None when the line is not a terminator *)
let parse_term line s =
  let s = strip s in
  (* split off an optional "; delay: <insn>" suffix *)
  let body, delay, annul =
    match split_once ';' s with
    | Some (body, rest) ->
      let rest = strip rest in
      if starts_with "delay,a:" rest then
        (strip body, Some (parse_insn line (drop_prefix "delay,a:" rest)), true)
      else if starts_with "delay:" rest then
        (strip body, Some (parse_insn line (drop_prefix "delay:" rest)), false)
      else fail line "unexpected comment %S" rest
    | None -> (s, None, false)
  in
  let kind =
    if starts_with "jmp " body then Some (Block.Jmp (strip (drop_prefix "jmp " body)))
    else if body = "ret" then Some (Block.Ret None)
    else if starts_with "ret " body then
      Some (Block.Ret (Some (parse_operand line (drop_prefix "ret " body))))
    else if starts_with "jtab " body then begin
      match split_all ',' (drop_prefix "jtab " body) with
      | [ r; t ] when starts_with "T" t -> (
        match int_of_string_opt (drop_prefix "T" t) with
        | Some id -> Some (Block.Jtab (parse_reg line r, id))
        | None -> fail line "bad table id %S" t)
      | _ -> fail line "bad jtab %S" body
    end
    else if starts_with "switch " body then begin
      (* switch rN [v:L; v:L] default L *)
      match String.index_opt body '[' , String.index_opt body ']' with
      | Some i, Some j when j > i ->
        let r = parse_reg line (String.sub body 7 (i - 7)) in
        let cases =
          split_all ';' (String.sub body (i + 1) (j - i - 1))
          |> List.map (fun c ->
                 match split_once ':' c with
                 | Some (v, l) -> (
                   match int_of_string_opt (strip v) with
                   | Some v -> (v, strip l)
                   | None -> fail line "bad case %S" c)
                 | None -> fail line "bad case %S" c)
        in
        let after = strip (String.sub body (j + 1) (String.length body - j - 1)) in
        if starts_with "default " after then
          Some (Block.Switch (r, cases, strip (drop_prefix "default " after)))
        else fail line "missing default in %S" body
      | _ -> fail line "bad switch %S" body
    end
    else
      match split_once ' ' body with
      | Some (mn, rest) when cond_of_mnemonic mn <> None -> (
        let cond = Option.get (cond_of_mnemonic mn) in
        (* "-> taken | fall" *)
        let rest = strip rest in
        if not (starts_with "-> " rest) then fail line "bad branch %S" body
        else
          match split_once '|' (drop_prefix "-> " rest) with
          | Some (t, f) -> Some (Block.Br (cond, strip t, strip f))
          | None -> fail line "bad branch targets %S" body)
      | _ -> None
  in
  match kind with
  | Some kind ->
    let t = Block.term kind in
    t.Block.delay <- delay;
    t.Block.annul <- annul;
    Some t
  | None -> if delay <> None then fail line "delay on a non-terminator" else None

(* ------------------------------------------------------------------ *)
(* Program structure                                                    *)
(* ------------------------------------------------------------------ *)

type line_kind =
  | Lblank
  | Lglobal of Program.global
  | Lfunction of string * Reg.t list
  | Ltable of int * string array
  | Llabel of string
  | Lterm of Block.term
  | Linsn of Insn.t

let classify lineno raw =
  let s = strip raw in
  if s = "" then Lblank
  else if s.[0] = ';' then Lblank (* full-line comment *)
  else if starts_with "global " s then begin
    let rest = drop_prefix "global " s in
    let name_part, init =
      match split_once '=' rest with
      | Some (n, init) -> (strip n, Some init)
      | None -> (strip rest, None)
    in
    match String.index_opt name_part '[' with
    | Some i when name_part.[String.length name_part - 1] = ']' -> (
      let gname = String.sub name_part 0 i in
      let size_str =
        String.sub name_part (i + 1) (String.length name_part - i - 2)
      in
      match int_of_string_opt size_str with
      | Some size ->
        let init =
          Option.map
            (fun init_str ->
              let init_str = strip init_str in
              if
                String.length init_str >= 2
                && init_str.[0] = '{'
                && init_str.[String.length init_str - 1] = '}'
              then
                split_all ','
                  (String.sub init_str 1 (String.length init_str - 2))
                |> List.map (fun v ->
                       match int_of_string_opt v with
                       | Some v -> v
                       | None -> fail lineno "bad initialiser value %S" v)
                |> Array.of_list
              else fail lineno "bad initialiser %S" init_str)
            init
        in
        Lglobal { Program.gname; size; init }
      | None -> fail lineno "bad global size %S" size_str)
    | _ -> fail lineno "bad global %S" s
  end
  else if starts_with "function " s then begin
    let rest = drop_prefix "function " s in
    match String.index_opt rest '(' with
    | Some i
      when String.length rest >= 2
           && rest.[String.length rest - 1] = ':'
           && rest.[String.length rest - 2] = ')' ->
      let name = strip (String.sub rest 0 i) in
      let params_str = String.sub rest (i + 1) (String.length rest - i - 3) in
      let params = split_all ',' params_str |> List.map (parse_reg lineno) in
      Lfunction (name, params)
    | _ -> fail lineno "bad function header %S" s
  end
  else if starts_with "table T" s then begin
    match split_once ':' (drop_prefix "table T" s) with
    | Some (id, targets) -> (
      match int_of_string_opt (strip id) with
      | Some id ->
        let targets = strip targets in
        if
          String.length targets >= 2
          && targets.[0] = '['
          && targets.[String.length targets - 1] = ']'
        then
          Ltable
            ( id,
              Array.of_list
                (split_all ';' (String.sub targets 1 (String.length targets - 2)))
            )
        else fail lineno "bad table targets %S" targets
      | None -> fail lineno "bad table id %S" id)
    | None -> fail lineno "bad table %S" s
  end
  else
    match parse_term lineno s with
    | Some t -> Lterm t
    | None ->
      (* a label line ends with ':' and contains no spaces or '=' *)
      if
        String.length s > 1
        && s.[String.length s - 1] = ':'
        && (not (String.contains s ' '))
        && not (String.contains s '=')
      then Llabel (String.sub s 0 (String.length s - 1))
      else Linsn (parse_insn lineno s)

let program text =
  let prog = Program.make () in
  let current_fn : Func.t option ref = ref None in
  let current_label = ref None in
  let current_insns = ref [] in
  let pending_tables = ref [] in
  let lineno = ref 0 in
  let flush_tables fn =
    List.iter
      (fun (id, targets) ->
        let got = Func.add_jtable fn targets in
        if got <> id then fail !lineno "table T%d declared out of order" id)
      (List.rev !pending_tables);
    pending_tables := []
  in
  let close_block term =
    match !current_fn, !current_label with
    | Some fn, Some label ->
      let b = Block.make ~label (List.rev !current_insns) (Block.Jmp "?") in
      b.Block.term <- term;
      Func.add_block fn b;
      current_label := None;
      current_insns := []
    | _, None -> fail !lineno "terminator outside a block"
    | None, _ -> fail !lineno "code outside a function"
  in
  let finish_function () =
    (match !current_label with
    | Some l -> fail !lineno "block %s has no terminator" l
    | None -> ());
    match !current_fn with
    | Some fn ->
      (* advance the register counter past every referenced register so
         later fresh_reg allocations cannot collide *)
      Func.iter_regs
        (fun r -> fn.Func.next_reg <- max fn.Func.next_reg (Reg.to_int r + 1))
        fn;
      Program.add_func prog fn;
      current_fn := None
    | None -> ()
  in
  String.split_on_char '\n' text
  |> List.iter (fun raw ->
         incr lineno;
         match classify !lineno raw with
         | Lblank -> ()
         | Lglobal g ->
           if !current_fn <> None then fail !lineno "global inside a function";
           Program.add_global prog g
         | Lfunction (name, params) ->
           finish_function ();
           current_fn := Some (Func.make ~name ~params)
         | Ltable (id, targets) -> (
           match !current_fn with
           | Some fn ->
             pending_tables := (id, targets) :: !pending_tables;
             flush_tables fn
           | None -> fail !lineno "table outside a function")
         | Llabel l -> (
           match !current_label with
           | Some pending -> fail !lineno "block %s has no terminator" pending
           | None -> current_label := Some l)
         | Lterm t -> close_block t
         | Linsn i -> (
           match !current_label with
           | Some _ -> current_insns := i :: !current_insns
           | None -> fail !lineno "instruction outside a block"))
  ;
  finish_function ();
  prog

let func text =
  let p = program text in
  match p.Program.funcs with
  | [ f ] -> f
  | fs -> raise (Error (0, Printf.sprintf "expected one function, got %d" (List.length fs)))
