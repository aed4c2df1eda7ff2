(* Native execution backend: runtime OCaml code generation.

   {!generate} emits an {!Image.t} as a self-contained OCaml module
   that depends on the standard library only.  The run's state is one
   record [st], allocated by [entry] once per exec; each MIR function
   becomes a top-level [f_F] that takes the register file of its call
   depth from [st.frames] (zeroed, grown on demand, reused by every
   later frame at that depth) and each basic block a top-level [b_F_B]
   over the state and that file, all in one [let rec] group, so block
   transfers are direct tail calls and a simulated call allocates
   nothing.  The charge batching plan of {!Image.plan} is emitted at
   code-generation time — pure instructions run straight-line and
   their counter/fuel charges are flushed, already folded into
   constants, where the plan says, through top-level [let[@inline]]
   helpers — so the fuel trap fires under exactly the same conditions
   and with the same message as the other backends and the ten
   counters are exact at every exit.

   The module is compiled out of process with [ocamlfind ocamlopt
   -shared] and loaded with [Dynlink.loadfile_private].  The plugin and
   the host rendezvous without sharing any compiled interface: the
   plugin's last toplevel definition raises a [Handoff] exception
   carrying its entry closure, which [Dynlink] hands back wrapped in
   [Library's_module_initializers_failed]; the host fishes the closure
   out and calls it with a [ctx] record of host-owned state and
   callbacks (memory, counters, output buffer, trap/cancel raisers,
   branch-event sink, profile hooks).  The record type is declared
   field-for-field identically on both sides ({!ctx} below and the
   [ctx_decl] string), which makes the cast safe; the declaration is
   part of the generated source and therefore of the content hash, so a
   plugin built against an older schema can never be loaded.

   Each branch terminator hands its site and outcome to the one
   [x_sink] callback, guarded by [x_use_sink] as block entries are by
   [x_use_on_block].  A [Sink_bank] sink is {!Predictor.bank_access},
   which buffers the events in the bank and folds them in batches, as
   for the other engines; the plugin keeps no buffer of its own, so a
   run stopped by a trap leaves nothing to flush.

   Artifacts are cached on disk under one subdirectory per
   compiler/ABI fingerprint, one [.cmxs] per content hash of the
   generated source; loaded entry points are additionally memoized in
   process, in a single-flight {!Artifact} cache.  Every failure mode of the toolchain (no ocamlfind, the
   compile fails, the artifact will not load) surfaces as [Error] /
   {!Unavailable}, never as a crash, so callers can degrade to the
   closure backend. *)

open Runtime

exception Unavailable of string

(* raised internally when an image contains a shape the generator does
   not support (none are produced by {!Image.build}) *)
exception Unsupported of string

let schema_version = 3

(* ------------------------------------------------------------------ *)
(* Process-wide configuration and statistics                           *)
(* ------------------------------------------------------------------ *)

let enabled_flag = ref (Sys.getenv_opt "BROMC_NO_NATIVE" = None)
let set_enabled b = enabled_flag := b
let enabled () = !enabled_flag

let default_cache_dir_override = ref (None : string option)
let set_default_cache_dir d = default_cache_dir_override := d

type stats = {
  memo_hits : int;
  disk_hits : int;
  misses : int;
  compiles : int;
  memo_entries : int;
  quarantined : int;
}

(* the memo's own hits and size are counted by its
   {!Artifact} cache below *)
let s_disk_hits = Atomic.make 0
let s_misses = Atomic.make 0
let s_compiles = Atomic.make 0
let s_quarantined = Atomic.make 0

(* ------------------------------------------------------------------ *)
(* The host side of the plugin interface                               *)
(* ------------------------------------------------------------------ *)

(* MUST match [ctx_decl] below field for field: the plugin declares a
   structurally identical record, and the handoff cast relies on the
   layouts agreeing.  Bump [schema_version] on any change. *)
type ctx = {
  x_mem : int array array;
  x_input : string;
  x_fuel : int;
  x_max_depth : int;
  x_counters : int array;  (* the ten counters, see [counter_ix] *)
  x_out : Buffer.t;
  x_trap : string -> int;  (* raises Trap; never returns *)
  x_cancelled : unit -> int;  (* raises Cancelled; never returns *)
  x_poll : unit -> bool;
  x_use_poll : bool;
  x_sink : int -> bool -> unit;
  x_use_sink : bool;
  x_on_block : string -> string -> unit;
  x_use_on_block : bool;
  x_range : int -> int -> unit;
  x_comb : int -> (int -> int) -> unit;
  x_use_profile : bool;
  x_raise : int -> int;  (* raises a decode-time exn; never returns *)
}

let ctx_decl =
  "type ctx = {\n\
  \  x_mem : int array array;\n\
  \  x_input : string;\n\
  \  x_fuel : int;\n\
  \  x_max_depth : int;\n\
  \  x_counters : int array;\n\
  \  x_out : Buffer.t;\n\
  \  x_trap : string -> int;\n\
  \  x_cancelled : unit -> int;\n\
  \  x_poll : unit -> bool;\n\
  \  x_use_poll : bool;\n\
  \  x_sink : int -> bool -> unit;\n\
  \  x_use_sink : bool;\n\
  \  x_on_block : string -> string -> unit;\n\
  \  x_use_on_block : bool;\n\
  \  x_range : int -> int -> unit;\n\
  \  x_comb : int -> (int -> int) -> unit;\n\
  \  x_use_profile : bool;\n\
  \  x_raise : int -> int;\n\
   }\n"

(* counter slots in [x_counters]; mirrors {!Counters.t} *)
let ix_insns = 0
and ix_cond = 1
and ix_taken = 2
and ix_jumps = 3
and ix_indirect = 4
and ix_calls = 5
and ix_returns = 6
and ix_loads = 7
and ix_stores = 8
and ix_nops = 9

(* ------------------------------------------------------------------ *)
(* Code generation                                                     *)
(* ------------------------------------------------------------------ *)

let cond_op : Mir.Cond.t -> string = function
  | Mir.Cond.Eq -> "="
  | Mir.Cond.Ne -> "<>"
  | Mir.Cond.Lt -> "<"
  | Mir.Cond.Le -> "<="
  | Mir.Cond.Gt -> ">"
  | Mir.Cond.Ge -> ">="

(* The plugin's fixed prelude, after [ctx_decl] and the [st] record:
   the charging helpers, the trap formatters, the input reader and the
   per-depth register files.  Everything here is a top-level function
   over the run state [s], so the blocks that call it allocate
   nothing.  Counter slots 0, 3 and 9 are [ix_insns], [ix_jumps] and
   [ix_nops]. *)
let prelude =
  {|let[@inline] bump s i = Array.unsafe_set s.k i (Array.unsafe_get s.k i + 1)
let[@inline never] fuel_out s =
  s.c.x_trap (Printf.sprintf "fuel exhausted (%d instructions)" s.c.x_fuel)
let[@inline] ch s n =
  Array.unsafe_set s.k 0 (Array.unsafe_get s.k 0 + n);
  let f = s.fuel - n in
  s.fuel <- f;
  if f < 0 then ignore (fuel_out s)
let[@inline] fl s pi pn =
  Array.unsafe_set s.k 9 (Array.unsafe_get s.k 9 + pn);
  ch s pi
let[@inline] np s = bump s 9; ch s 1
let[@inline] lj s = bump s 3; bump s 9; ch s 2
let[@inline] enter s fn lb =
  if s.c.x_use_poll && s.c.x_poll () then ignore (s.c.x_cancelled ());
  if s.c.x_use_on_block then s.c.x_on_block fn lb
let[@inline never] oob s nm i len =
  ignore
    (s.c.x_trap
       (Printf.sprintf "out-of-bounds access %s[%d] (size %d)" nm i len))
let[@inline never] jtab s ix lb =
  s.c.x_trap (Printf.sprintf "jump table index %d out of bounds (%s)" ix lb)
let getch s =
  if s.pos >= String.length s.c.x_input then -1
  else begin
    let c = Char.code (String.unsafe_get s.c.x_input s.pos) in
    s.pos <- s.pos + 1;
    c
  end
let frame s n : int array =
  let d = s.depth in
  if d >= Array.length s.frames then begin
    let bigger = Array.make (max (d + 1) (2 * Array.length s.frames)) [||] in
    Array.blit s.frames 0 bigger 0 (Array.length s.frames);
    s.frames <- bigger
  end;
  let f = Array.unsafe_get s.frames d in
  if Array.length f < n then begin
    let f = Array.make n 0 in
    Array.unsafe_set s.frames d f;
    f
  end
  else begin
    for i = 0 to n - 1 do
      Array.unsafe_set f i 0
    done;
    f
  end
|}

let generate (img : Image.t) : string * exn array =
  let b = Buffer.create 16384 in
  let pf fmt = Printf.bprintf b fmt in
  let raises = ref [] in
  let nraises = ref 0 in
  let raise_slot e =
    let k = !nraises in
    raises := e :: !raises;
    incr nraises;
    k
  in
  let funcs = img.Image.funcs in
  let globals = img.Image.globals in

  (* operand printer over the current frame's register file [r] *)
  let pop = function
    | Image.Preg r -> Printf.sprintf "(Array.unsafe_get r %d)" r
    | Image.Pimm n -> Printf.sprintf "(%d)" n
  in

  (* the operational code of one instruction, without any charging; the
     caller has already emitted the flush required by its kind *)
  let gen_insn ind (i : Image.pinsn) =
    let line fmt =
      Buffer.add_string b ind;
      Printf.bprintf b fmt
    in
    let set r fmt =
      Buffer.add_string b ind;
      Printf.kbprintf (fun b -> Buffer.add_string b ");\n") b
        ("Array.unsafe_set r %d (" ^^ fmt) r
    in
    match i with
    | Image.Pnop -> ()
    | Image.Pmov (r, o) -> set r "%s" (pop o)
    | Image.Punop (Mir.Insn.Neg, r, o) -> set r "- %s" (pop o)
    | Image.Punop (Mir.Insn.Not, r, o) ->
      set r "if %s = 0 then 1 else 0" (pop o)
    | Image.Pbinop (op, r, x, y) -> (
      let open Mir.Insn in
      match (op, x, y) with
      | (Div | Rem), _, Image.Pimm 0 ->
        line "ignore (s.c.x_trap \"division by zero\");\n"
      | Div, _, Image.Pimm n -> set r "%s / (%d)" (pop x) n
      | Rem, _, Image.Pimm n -> set r "%s mod (%d)" (pop x) n
      | (Div | Rem), _, Image.Preg y ->
        line "let d = Array.unsafe_get r %d in\n" y;
        line "if d = 0 then ignore (s.c.x_trap \"division by zero\");\n";
        set r "%s %s d" (pop x) (if op = Div then "/" else "mod")
      | _, Image.Pimm vx, Image.Pimm vy ->
        (* constant folded at code-generation time, like {!Compiled} *)
        set r "%d" (eval_binop op vx vy)
      | Shl, _, Image.Pimm n -> set r "%s lsl %d" (pop x) (n land 63)
      | Shr, _, Image.Pimm n -> set r "%s asr %d" (pop x) (n land 63)
      | Shl, _, _ -> set r "%s lsl (%s land 63)" (pop x) (pop y)
      | Shr, _, _ -> set r "%s asr (%s land 63)" (pop x) (pop y)
      | Add, _, _ -> set r "%s + %s" (pop x) (pop y)
      | Sub, _, _ -> set r "%s - %s" (pop x) (pop y)
      | Mul, _, _ -> set r "%s * %s" (pop x) (pop y)
      | And, _, _ -> set r "%s land %s" (pop x) (pop y)
      | Or, _, _ -> set r "%s lor %s" (pop x) (pop y)
      | Xor, _, _ -> set r "%s lxor %s" (pop x) (pop y))
    | Image.Pcmp (x, y) ->
      line "s.cc_a <- %s;\n" (pop x);
      line "s.cc_b <- %s;\n" (pop y)
    | Image.Pload (r, slot, idx) ->
      line "bump s %d;\n" ix_loads;
      line "let g = s.g%d and i = %s in\n" slot (pop idx);
      line "if i < 0 || i >= Array.length g then oob s %S i (Array.length g);\n"
        globals.(slot).Image.g_name;
      set r "Array.unsafe_get g i"
    | Image.Pstore (slot, idx, v) ->
      line "bump s %d;\n" ix_stores;
      line "let g = s.g%d and i = %s in\n" slot (pop idx);
      line "if i < 0 || i >= Array.length g then oob s %S i (Array.length g);\n"
        globals.(slot).Image.g_name;
      line "Array.unsafe_set g i %s;\n" (pop v)
    | Image.Pcall (dst, fid, args) ->
      let callee = funcs.(fid) in
      let nparams = Array.length callee.Image.pf_params in
      line "bump s %d;\n" ix_calls;
      if Array.length args < nparams then begin
        line "if s.depth + 1 >= s.c.x_max_depth then ignore (s.c.x_trap %S);\n"
          ("call depth exceeded in " ^ callee.Image.pf_name);
        line "ignore (s.c.x_trap %S);\n"
          ("too few arguments to " ^ callee.Image.pf_name)
      end
      else begin
        line "let d = s.depth + 1 in\n";
        line "if d >= s.c.x_max_depth then ignore (s.c.x_trap %S);\n"
          ("call depth exceeded in " ^ callee.Image.pf_name);
        line "s.depth <- d;\n";
        line "let v = f_%d s%s in\n" fid
          (String.concat ""
             (List.init nparams (fun i -> " " ^ pop args.(i))));
        line "s.depth <- d - 1;\n";
        if dst >= 0 then set dst "v" else line "ignore v;\n"
      end
    | Image.Pbuiltin (dst, bi, args) -> (
      line "bump s %d;\n" ix_calls;
      match bi with
      | Image.Bgetchar ->
        if dst >= 0 then set dst "getch s"
        else line "ignore (getch s);\n"
      | Image.Bputchar ->
        line "let v = %s in\n" (pop args.(0));
        line "Buffer.add_char s.c.x_out (Char.unsafe_chr (v land 255));\n";
        if dst >= 0 then set dst "v"
      | Image.Bprint_int ->
        line "Buffer.add_string s.c.x_out (string_of_int %s);\n" (pop args.(0));
        if dst >= 0 then set dst "0"
      | Image.Bexit -> line "raise (Exitp %s);\n" (pop args.(0)))
    | Image.Pprofile_range (id, r) ->
      line "if s.c.x_use_profile then s.c.x_range %d (Array.unsafe_get r %d);\n"
        id r
    | Image.Pprofile_comb id ->
      line "if s.c.x_use_profile then s.c.x_comb %d (fun i -> r.(i));\n" id
    | Image.Ptrap_insn msg -> line "ignore (s.c.x_trap %S);\n" msg
  in

  (* pending charge flush: [pi] instructions of which [pn] are nops *)
  let gen_flush ind pi pn =
    if pn = 0 then begin
      if pi > 0 then pf "%sch s %d;\n" ind pi
    end
    else pf "%sfl s %d %d;\n" ind pi pn
  in

  (* a delay-slot instruction executed standalone pays its own charge *)
  let gen_delay ind (i : Image.pinsn option) =
    match i with
    | None -> pf "%snp s;\n" ind
    | Some i -> (
      match Image.batching i with
      | Image.Bnop -> pf "%snp s;\n" ind
      | Image.Bpure | Image.Beffect ->
        pf "%sch s 1;\n" ind;
        gen_insn ind i
      | Image.Bobserve -> gen_insn ind i)
  in

  (* one basic block: a top-level function of the run state and the
     register file of its frame, entered by a direct tail call *)
  let gen_block fid (f : Image.pfunc) bix (blk : Image.pblock) =
    let target t =
      if t >= 0 then Printf.sprintf "b_%d_%d s r" fid t
      else
        Printf.sprintf "s.c.x_trap %S"
          ("jump to unknown label " ^ f.Image.pf_unknown.(-t - 1))
    in
    pf "and b_%d_%d (s : st) (r : int array) : int =\n" fid bix;
    pf "  enter s %S %S;\n" f.Image.pf_name blk.Image.pb_label;
    let ind = "  " in
    let plan = Image.plan blk in
    Array.iteri
      (fun k i ->
        let fi, fn = plan.Image.flushes.(k) in
        gen_flush ind fi fn;
        gen_insn ind i)
      blk.Image.pb_insns;
    let pi, pn = plan.Image.owed in
    let site = blk.Image.pb_site in
    match blk.Image.pb_term with
    | Image.Pbr (cond, t, nt, nt_falls) ->
      gen_flush ind (pi + 1) pn;
      pf "  bump s %d;\n" ix_cond;
      pf "  if s.cc_a %s s.cc_b then begin\n" (cond_op cond);
      pf "    bump s %d;\n" ix_taken;
      pf "    if s.c.x_use_sink then s.c.x_sink %d true;\n" site;
      let d_taken, d_not_taken =
        if blk.Image.pb_annul then
          match blk.Image.pb_delay with
          | Some _ -> (blk.Image.pb_delay, `Skip)
          | None -> (None, `Nop)
        else (blk.Image.pb_delay, `Run)
      in
      gen_delay "    " d_taken;
      pf "    %s\n" (target t);
      pf "  end\n";
      pf "  else begin\n";
      pf "    if s.c.x_use_sink then s.c.x_sink %d false;\n" site;
      (match d_not_taken with
      | `Run -> gen_delay "    " blk.Image.pb_delay
      | `Nop -> gen_delay "    " None
      | `Skip -> ());
      if not nt_falls then pf "    lj s;\n";
      pf "    %s\n" (target nt);
      pf "  end\n"
    | Image.Pjmp (t, falls) ->
      if falls then begin
        if t < 0 then
          raise (Unsupported "fall-through jump to an unknown label");
        gen_flush ind pi pn;
        pf "  %s\n" (target t)
      end
      else begin
        gen_flush ind (pi + 1) pn;
        pf "  bump s %d;\n" ix_jumps;
        gen_delay ind blk.Image.pb_delay;
        pf "  %s\n" (target t)
      end
    | Image.Pjtab (reg, table) ->
      gen_flush ind (pi + 1) pn;
      pf "  bump s %d;\n" ix_indirect;
      gen_delay ind blk.Image.pb_delay;
      pf "  let ix = Array.unsafe_get r %d in\n" reg;
      let n = Array.length table in
      if n = 0 then pf "  jtab s ix %S\n" blk.Image.pb_label
      else begin
        pf "  if ix < 0 || ix >= %d then ignore (jtab s ix %S);\n" n
          blk.Image.pb_label;
        pf "  (match ix with\n";
        for j = 0 to n - 2 do
          pf "   | %d -> %s\n" j (target table.(j))
        done;
        pf "   | _ -> %s)\n" (target table.(n - 1))
      end
    | Image.Pret v ->
      gen_flush ind (pi + 1) pn;
      pf "  bump s %d;\n" ix_returns;
      (* the delay slot runs before the return value is read *)
      gen_delay ind blk.Image.pb_delay;
      pf "  %s\n"
        (match v with
        | None -> "0"
        | Some o -> pop o)
    | Image.Ptrap_term msg ->
      gen_flush ind pi pn;
      pf "  s.c.x_trap %S\n" msg
    | Image.Praise_term e ->
      gen_flush ind pi pn;
      pf "  s.c.x_raise %d\n" (raise_slot e)
  in

  (* a function takes the register file of its call depth, binds its
     parameters (the last binding of a slot wins, as in the compiled
     backend's bind loop) and tail-calls its entry block *)
  let gen_func fid (f : Image.pfunc) =
    let nparams = Array.length f.Image.pf_params in
    pf "%s f_%d (s : st)" (if fid = 0 then "let rec" else "and") fid;
    for i = 0 to nparams - 1 do
      pf " a%d" i
    done;
    pf " : int =\n";
    if Array.length f.Image.pf_blocks = 0 then
      (* the same failure as [run_blocks] indexing an empty array *)
      pf "  raise (Invalid_argument \"index out of bounds\")\n"
    else begin
      pf "  let r = frame s %d in\n" (max f.Image.pf_nregs 1);
      Array.iteri
        (fun i slot -> pf "  Array.unsafe_set r %d a%d;\n" slot i)
        f.Image.pf_params;
      pf "  b_%d_0 s r\n" fid;
      Array.iteri (gen_block fid f) f.Image.pf_blocks
    end
  in

  pf "(* generated by Sim.Native, plugin schema %d -- do not edit *)\n"
    schema_version;
  Buffer.add_string b ctx_decl;
  pf "exception Handoff of (ctx -> int)\n";
  pf "exception Exitp of int\n";
  pf "type st = {\n";
  pf "  c : ctx;\n";
  pf "  k : int array;\n";
  Array.iteri (fun i _ -> pf "  g%d : int array;\n" i) globals;
  pf "  mutable fuel : int;\n";
  pf "  mutable cc_a : int;\n";
  pf "  mutable cc_b : int;\n";
  pf "  mutable depth : int;\n";
  pf "  mutable pos : int;\n";
  pf "  mutable frames : int array array;\n";
  pf "}\n";
  Buffer.add_string b prelude;
  Array.iteri gen_func funcs;
  pf "let entry (c : ctx) : int =\n";
  pf "  let s = {\n";
  pf "    c; k = c.x_counters;\n";
  Array.iteri (fun i _ -> pf "    g%d = Array.unsafe_get c.x_mem %d;\n" i i)
    globals;
  pf "    fuel = c.x_fuel; cc_a = 0; cc_b = 0; depth = 0; pos = 0;\n";
  pf "    frames = Array.make 16 [||] } in\n";
  pf "  try\n";
  (if img.Image.main_id < 0 then
     pf "    c.x_trap \"call to unknown function main\"\n"
   else begin
     let mf = funcs.(img.Image.main_id) in
     pf "    if 0 >= c.x_max_depth then ignore (c.x_trap %S);\n"
       ("call depth exceeded in " ^ mf.Image.pf_name);
     if Array.length mf.Image.pf_params > 0 then
       pf "    c.x_trap %S\n" ("too few arguments to " ^ mf.Image.pf_name)
     else pf "    f_%d s\n" img.Image.main_id
   end);
  pf "  with Exitp code -> code\n";
  pf "let () = raise (Handoff entry)\n";
  (Buffer.contents b, Array.of_list (List.rev !raises))

(* ------------------------------------------------------------------ *)
(* Toolchain discovery                                                 *)
(* ------------------------------------------------------------------ *)

let find_in_path name =
  match Sys.getenv_opt "PATH" with
  | None -> None
  | Some p ->
    List.find_map
      (fun d ->
        if d = "" then None
        else
          let f = Filename.concat d name in
          if Sys.file_exists f then Some f else None)
      (String.split_on_char ':' p)

(* run [argv], sending both output streams to [log]; -1 = could not run *)
let run_process argv ~log =
  let fd =
    Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let pid =
    try Unix.create_process argv.(0) argv Unix.stdin fd fd
    with _ ->
      Unix.close fd;
      -1
  in
  if pid < 0 then -1
  else begin
    Unix.close fd;
    match Unix.waitpid [] pid with
    | _, Unix.WEXITED n -> n
    | _, (Unix.WSIGNALED _ | Unix.WSTOPPED _) -> 255
  end

let read_file_excerpt path limit =
  try
    let ic = open_in_bin path in
    let n = min limit (in_channel_length ic) in
    let s = really_input_string ic n in
    close_in ic;
    String.trim s
  with _ -> ""

type toolchain = { tc_ocamlfind : string; tc_version : string }

(* once-per-process memos, by hand: OCaml [lazy] is not domain-safe
   (two domains forcing at once raise CamlinternalLazy.Undefined), and
   suite jobs reach these from every domain in the pool.  Each memo has
   its own lock, taken strictly before the locks {!prepare} takes (the
   probe runs a full prepare) and never the other way round. *)
let memoize lock cell compute () =
  Mutex.lock lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock lock)
    (fun () ->
      match !cell with
      | Some r -> r
      | None ->
        let r = compute () in
        cell := Some r;
        r)

let toolchain_lock = Mutex.create ()
let toolchain_memo = ref None

let toolchain =
  memoize toolchain_lock toolchain_memo (fun () ->
      match find_in_path "ocamlfind" with
      | None -> Error "ocamlfind not found in PATH"
      | Some ocamlfind -> (
        let log = Filename.temp_file "bromc-native" ".ver" in
        let code = run_process [| ocamlfind; "ocamlopt"; "-version" |] ~log in
        let out = read_file_excerpt log 256 in
        (try Sys.remove log with _ -> ());
        if code <> 0 then
          Error
            (Printf.sprintf "ocamlfind ocamlopt -version failed (exit %d): %s"
               code out)
        else
          match String.split_on_char '\n' out with
          | v :: _ when String.trim v <> "" ->
            Ok { tc_ocamlfind = ocamlfind; tc_version = String.trim v }
          | _ -> Error "ocamlfind ocamlopt -version produced no output"))

let sanitize s =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '.' | '+' | '-' -> c
      | _ -> '_')
    s

(* the fingerprint partitions the artifact store; loading still checks
   interface CRCs, so a wrong but colliding fingerprint degrades
   cleanly rather than misbehaving *)
let fingerprint_of tc =
  Printf.sprintf "%s-w%d-s%d" (sanitize tc.tc_version) Sys.word_size
    schema_version

(* ------------------------------------------------------------------ *)
(* Artifact store                                                      *)
(* ------------------------------------------------------------------ *)

let default_cache_root () =
  match !default_cache_dir_override with
  | Some d -> d
  | None -> (
    match Sys.getenv_opt "BROMC_NATIVE_CACHE" with
    | Some d when d <> "" -> d
    | _ -> (
      let home_cache () =
        match Sys.getenv_opt "HOME" with
        | Some h when h <> "" -> Filename.concat h ".cache"
        | _ -> Filename.get_temp_dir_name ()
      in
      let base =
        match Sys.getenv_opt "XDG_CACHE_HOME" with
        | Some d when d <> "" -> d
        | _ -> home_cache ()
      in
      Filename.concat (Filename.concat base "bromc") "native"))

let cache_root dir = match dir with Some d -> d | None -> default_cache_root ()

let rec mkdirs d =
  if not (Sys.file_exists d) then begin
    mkdirs (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* ------------------------------------------------------------------ *)
(* Artifact checksums and quarantine                                   *)
(* ------------------------------------------------------------------ *)

(* every installed [.cmxs] gets a [.sum] sidecar holding the MD5 of its
   bytes, verified before every disk-hit load.  Dynlink's own interface
   CRCs catch ABI skew but happily map a bit-flipped artifact whose
   tables still parse; the sidecar catches silent disk corruption
   before the code is executed.  A mismatching or sidecar-less artifact
   is not deleted — it is moved aside into [root/quarantine/]
   (forensics beat erasure) and rebuilt from source as if it had never
   existed. *)

let sum_path cmxs = cmxs ^ ".sum"

let file_digest path =
  try Some (Digest.to_hex (Digest.file path)) with _ -> None

(* the sidecar of [dest] holds the digest of [bytes], the build output
   about to be renamed onto [dest]: written first, so a store [.cmxs]
   is never seen without one *)
let write_sum ~bytes dest =
  match file_digest bytes with
  | None -> ()
  | Some d -> (
    try
      let oc = open_out_bin (sum_path dest) in
      output_string oc d;
      close_out oc
    with _ -> ())

let read_sum cmxs =
  try
    let ic = open_in_bin (sum_path cmxs) in
    let s = try String.trim (input_line ic) with End_of_file -> "" in
    close_in_noerr ic;
    if String.length s = 32 then Some s else None
  with _ -> None

let checksum_ok cmxs =
  match (read_sum cmxs, file_digest cmxs) with
  | Some expect, Some actual -> String.equal actual expect
  | _ -> false

let quarantine_dir_name = "quarantine"

(* move a failed artifact (and its sidecar) aside under
   [root/quarantine/], renamed so nothing ever loads or lists it as a
   cache entry again *)
let quarantine ~root cmxs =
  let qdir = Filename.concat root quarantine_dir_name in
  mkdirs qdir;
  let tag = Filename.basename (Filename.dirname cmxs) in
  let dest =
    Filename.concat qdir (tag ^ "-" ^ Filename.basename cmxs ^ ".quarantined")
  in
  (try Sys.rename cmxs dest
   with _ -> ( try Sys.remove cmxs with _ -> ()));
  (try Sys.remove (sum_path cmxs) with _ -> ());
  Atomic.incr s_quarantined

let remove_tree dir =
  let removed = ref 0 in
  let rec go d =
    match Sys.readdir d with
    | entries ->
      Array.iter
        (fun e ->
          let p = Filename.concat d e in
          if Sys.is_directory p then go p
          else begin
            (try Sys.remove p with _ -> ());
            incr removed
          end)
        entries;
      (try Unix.rmdir d with _ -> ())
    | exception _ -> ()
  in
  go dir;
  !removed

(* ------------------------------------------------------------------ *)
(* Compilation and loading                                             *)
(* ------------------------------------------------------------------ *)

(* the in-process memo of loaded entry points, keyed like the on-disk
   store.  Single-flight per key: concurrent requests for one cold image
   wait for a single build while different images compile in parallel.
   Entries are never evicted: the mapped plugin code cannot be unloaded
   (Dynlink cannot), so dropping a loaded entry would only force a
   reload of the same image that maps it a second time. *)
let memo : (ctx -> int) Artifact.t = Artifact.create ~name:"native" ()

(* bumped by [clear_memo].  Memo keys carry the epoch, so a load still
   in flight when the memo is cleared lands under a dead key instead of
   serving later requests, and a handle prepared under an older epoch
   is retired: its holder prepares again *)
let memo_epoch = Atomic.make 0

let clear_memo () =
  Atomic.incr memo_epoch;
  Artifact.clear memo

let stats () =
  let m = Artifact.stats memo in
  {
    memo_hits = m.Artifact.a_hits;
    disk_hits = Atomic.get s_disk_hits;
    misses = Atomic.get s_misses;
    compiles = Atomic.get s_compiles;
    memo_entries = m.Artifact.a_entries;
    quarantined = Atomic.get s_quarantined;
  }

let reset_stats () =
  Artifact.reset_stats memo;
  List.iter
    (fun c -> Atomic.set c 0)
    [ s_disk_hits; s_misses; s_compiles; s_quarantined ]

(* Dynlink is not safe to call from several domains at once.  This is
   the only lock preparation takes of its own, and it is never held
   across a compile *)
let dynlink_lock = Mutex.create ()

(* fish the entry closure out of the plugin's [Handoff] initializer
   exception (see the header comment) *)
let load_entry path : (ctx -> int, string) Stdlib.result =
  match Mutex.protect dynlink_lock (fun () -> Dynlink.loadfile_private path) with
  | () -> Error "plugin loaded but did not hand off an entry point"
  | exception Dynlink.Error (Dynlink.Library's_module_initializers_failed e)
    ->
    let r = Obj.repr e in
    let is_handoff =
      Obj.is_block r
      && Obj.size r = 2
      &&
      let slot = Obj.field r 0 in
      Obj.is_block slot
      && Obj.size slot >= 1
      &&
      let name = Obj.field slot 0 in
      Obj.tag name = Obj.string_tag
      &&
      let s : string = Obj.obj name in
      let suffix = ".Handoff" in
      let ls = String.length s and lx = String.length suffix in
      ls > lx && String.sub s (ls - lx) lx = suffix
    in
    if is_handoff then Ok (Obj.obj (Obj.field r 1) : ctx -> int)
    else Error ("plugin initializer raised: " ^ Printexc.to_string e)
  | exception Dynlink.Error err -> Error (Dynlink.error_message err)
  | exception e -> Error (Printexc.to_string e)

type t = {
  n_image : Image.t;
  n_entry : ctx -> int;
  n_raises : exn array;
  n_epoch : int;  (* [memo_epoch] when preparation began *)
}

let image t = t.n_image
let current t = t.n_epoch = Atomic.get memo_epoch

let compile_and_load tc ~build_dir ~modname ~source ~install =
  mkdirs build_dir;
  let src = Filename.concat build_dir (modname ^ ".ml") in
  let out = Filename.concat build_dir (modname ^ ".cmxs") in
  let log = Filename.concat build_dir "compile.log" in
  let oc = open_out_bin src in
  output_string oc source;
  close_out oc;
  let code =
    run_process
      [| tc.tc_ocamlfind; "ocamlopt"; "-shared"; "-w"; "-a"; "-o"; out; src |]
      ~log
  in
  if code <> 0 then begin
    let excerpt = read_file_excerpt log 800 in
    ignore (remove_tree build_dir);
    Error
      (Printf.sprintf "ocamlfind ocamlopt -shared failed (exit %d): %s" code
         excerpt)
  end
  else begin
    Atomic.incr s_compiles;
    mkdirs (Filename.dirname install);
    write_sum ~bytes:out install;
    (try Sys.rename out install with _ -> ());
    let r = load_entry (if Sys.file_exists install then install else out) in
    (* the object file can be unlinked once mapped *)
    ignore (remove_tree build_dir);
    r
  end

exception Load_failed of string

let build_seq = Atomic.make 0

(* the memo and store key of generated [source], and the module name
   of its plugin *)
let plugin_key tc source =
  let key = Digest.to_hex (Digest.string (fingerprint_of tc ^ "\n" ^ source)) in
  (key, "bromc_native_" ^ key)

(* where the plugin [modname] lives in the store under [root] *)
let plugin_path tc ~root modname =
  Filename.concat (Filename.concat root (fingerprint_of tc)) (modname ^ ".cmxs")

let store_path ?cache_dir img =
  match (!enabled_flag, toolchain ()) with
  | true, Ok tc -> (
    match generate img with
    | exception Unsupported _ -> None
    | source, _ ->
      let _, modname = plugin_key tc source in
      Some (plugin_path tc ~root:(cache_root cache_dir) modname))
  | _ -> None

let prepare ?cache_dir img : (t, string) Stdlib.result =
  let n_epoch = Atomic.get memo_epoch in
  if not !enabled_flag then Error "native backend disabled"
  else
    match generate img with
    | exception Unsupported msg -> Error ("code generation: " ^ msg)
    | source, n_raises -> (
      match toolchain () with
      | Error e -> Error e
      | Ok tc -> (
        let key, modname = plugin_key tc source in
        let load () =
          let root = cache_root cache_dir in
          let cached = plugin_path tc ~root modname in
          let build () =
            Atomic.incr s_misses;
            (* a load left in flight by [clear_memo] may build the same
               key beside its successor: one directory per build *)
            let tag =
              Printf.sprintf "%d-%d-%s" (Unix.getpid ())
                (Atomic.fetch_and_add build_seq 1)
                key
            in
            compile_and_load tc
              ~build_dir:(Filename.concat root ("tmp-" ^ tag))
              ~modname ~source ~install:cached
          in
          let rebuild_after_quarantine () =
            quarantine ~root cached;
            build ()
          in
          let loaded =
            if not (Sys.file_exists cached) then build ()
            else if not (checksum_ok cached) then
              (* bytes do not match the sidecar, or it is missing: the
                 store is corrupt; move the artifact aside and rebuild *)
              rebuild_after_quarantine ()
            else
              match load_entry cached with
              | Ok e ->
                Atomic.incr s_disk_hits;
                Ok e
              | Error _ ->
                (* checksum fine but Dynlink rejects it (stale schema,
                   ABI skew): same remedy *)
                rebuild_after_quarantine ()
          in
          match loaded with Ok e -> e | Error e -> raise (Load_failed e)
        in
        match
          Artifact.find_or_build memo
            (Printf.sprintf "%s@%d" key n_epoch)
            load
        with
        | entry -> Ok { n_image = img; n_entry = entry; n_raises; n_epoch }
        | exception Load_failed e -> Error e))

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)
(* ------------------------------------------------------------------ *)

let no_sink _ _ = ()
let no_block _ _ = ()
let no_range _ _ = ()
let no_comb _ _ = ()
let never () = false

let exec ?(config = default_config) ?profile ?(sink = Predictor.Sink_none)
    ?on_block t ~input =
  let k = Array.make 10 0 in
  let raises = t.n_raises in
  Image.with_output (fun out ->
  Image.with_memory t.n_image (fun x_mem ->
    let ctx =
      {
        x_mem;
        x_input = input;
        x_fuel = config.fuel;
        x_max_depth = config.max_depth;
        x_counters = k;
        x_out = out;
        x_trap = (fun msg -> raise (Trap msg));
        x_cancelled = (fun () -> raise Cancelled);
        x_poll = (match config.cancel with Some f -> f | None -> never);
        x_use_poll = config.cancel <> None;
        x_sink =
          (match sink with
          | Predictor.Sink_none -> no_sink
          | Predictor.Sink_fun f -> fun site taken -> f ~site ~taken
          | Predictor.Sink_bank b ->
            fun site taken -> Predictor.bank_access b ~site ~taken);
        x_use_sink = (match sink with Predictor.Sink_none -> false | _ -> true);
        x_on_block =
          (match on_block with
          | Some f -> fun func label -> f ~func ~label
          | None -> no_block);
        x_use_on_block = on_block <> None;
        x_range =
          (match profile with
          | Some p -> fun id v -> Profile.record_range p id v
          | None -> no_range);
        x_comb =
          (match profile with
          | Some p ->
            fun id rd ->
              Profile.record_comb p id ~read_reg:(fun r ->
                  rd (Mir.Reg.to_int r))
          | None -> no_comb);
        x_use_profile = profile <> None;
        x_raise = (fun i -> raise raises.(i));
      }
    in
    let exit_code = t.n_entry ctx in
    let c = Counters.make () in
    c.Counters.insns <- k.(ix_insns);
    c.Counters.cond_branches <- k.(ix_cond);
    c.Counters.taken_branches <- k.(ix_taken);
    c.Counters.jumps <- k.(ix_jumps);
    c.Counters.indirect_jumps <- k.(ix_indirect);
    c.Counters.calls <- k.(ix_calls);
    c.Counters.returns <- k.(ix_returns);
    c.Counters.loads <- k.(ix_loads);
    c.Counters.stores <- k.(ix_stores);
    c.Counters.nops <- k.(ix_nops);
    { counters = c; output = Buffer.contents out; exit_code }))

let run_image ?config ?profile ?sink ?on_block ?cache_dir img ~input =
  match prepare ?cache_dir img with
  | Error msg -> raise (Unavailable msg)
  | Ok t -> exec ?config ?profile ?sink ?on_block t ~input

(* ------------------------------------------------------------------ *)
(* Availability probe                                                  *)
(* ------------------------------------------------------------------ *)

(* a one-block one-function image: the probe exercises the whole
   pipeline — generate, compile, load, hand off, execute *)
let probe_image : Image.t =
  {
    Image.funcs =
      [|
        {
          Image.pf_name = "main";
          pf_params = [||];
          pf_nregs = 1;
          pf_blocks =
            [|
              {
                Image.pb_label = "entry";
                pb_insns = [||];
                pb_term = Image.Pret None;
                pb_delay = None;
                pb_annul = false;
                pb_site = 0;
              };
            |];
          pf_unknown = [||];
        };
      |];
    main_id = 0;
    globals = [||];
    nsites = 0;
  }

let probe_lock = Mutex.create ()
let probe_memo = ref None

let probe =
  memoize probe_lock probe_memo (fun () ->
      match prepare probe_image with
      | Error e -> Error e
      | Ok t -> (
        match exec t ~input:"" with
        | { exit_code = 0; _ } -> Ok ()
        | r -> Error (Printf.sprintf "probe returned %d" r.exit_code)
        | exception e -> Error (Printexc.to_string e)))

let available () =
  !enabled_flag && match probe () with Ok () -> true | Error _ -> false

(* ------------------------------------------------------------------ *)
(* Cache maintenance                                                   *)
(* ------------------------------------------------------------------ *)

module Cache = struct
  let default_dir () = default_cache_root ()

  let fingerprint () =
    match toolchain () with
    | Ok tc -> Some (fingerprint_of tc)
    | Error _ -> None

  type entry = {
    e_fingerprint : string;
    e_files : int;
    e_bytes : int;
    e_current : bool;
  }

  (* the [.cmxs] artifacts of one fingerprint directory, sorted *)
  let artifacts_in d =
    match Sys.readdir d with
    | exception Sys_error _ -> []
    | fs ->
      Array.to_list fs
      |> List.filter (fun f -> Filename.check_suffix f ".cmxs")
      |> List.sort compare
      |> List.map (Filename.concat d)

  (* the one walk of the store: [(name, path)] of every directory under
     the root but the quarantine, by name *)
  let walk root =
    match Sys.readdir root with
    | exception Sys_error _ -> []
    | names ->
      Array.to_list names
      |> List.sort compare
      |> List.filter_map (fun name ->
             let d = Filename.concat root name in
             if name = quarantine_dir_name || not (Sys.is_directory d) then None
             else Some (name, d))

  let list ?dir () =
    let current = fingerprint () in
    List.map
      (fun (name, d) ->
        let files = artifacts_in d in
        {
          e_fingerprint = name;
          e_files = List.length files;
          e_bytes =
            List.fold_left
              (fun acc f -> acc + (try (Unix.stat f).Unix.st_size with _ -> 0))
              0 files;
          e_current = current = Some name;
        })
      (walk (cache_root dir))

  let clear ?dir () =
    let root = cache_root dir in
    match Sys.readdir root with
    | exception _ -> 0
    | entries ->
      Array.fold_left
        (fun acc name ->
          let d = Filename.concat root name in
          if Sys.is_directory d then acc + remove_tree d
          else begin
            (try Sys.remove d with _ -> ());
            acc + 1
          end)
        0 entries

  let evict_stale ?dir () =
    match fingerprint () with
    | None -> 0
    | Some current ->
      List.fold_left
        (fun acc (name, d) ->
          if name <> current then acc + remove_tree d else acc)
        0 (walk (cache_root dir))

  type verify_report = {
    v_checked : int;
    v_ok : int;
    v_quarantined : int;
  }

  (* proactive sweep: digest every cached artifact against its sidecar
     without waiting for a request to trip over the corruption.  Run by
     [bromc cache --verify] (and the chaos CI job). *)
  let verify ?dir () =
    let root = cache_root dir in
    let checked = ref 0 and ok = ref 0 and quarantined = ref 0 in
    List.iter
      (fun (_, d) ->
        List.iter
          (fun cmxs ->
            incr checked;
            if checksum_ok cmxs then incr ok
            else begin
              quarantine ~root cmxs;
              incr quarantined
            end)
          (artifacts_in d))
      (walk root);
    { v_checked = !checked; v_ok = !ok; v_quarantined = !quarantined }
  end
