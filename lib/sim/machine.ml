(* the runtime types are shared by all execution backends *)
exception Trap = Runtime.Trap
exception Program_exit = Runtime.Program_exit
exception Cancelled = Runtime.Cancelled

let trap fmt = Printf.ksprintf (fun s -> raise (Trap s)) fmt

type config = Runtime.config = {
  fuel : int;
  max_depth : int;
  cancel : (unit -> bool) option;
}

let default_config = Runtime.default_config

type result = Runtime.result = {
  counters : Counters.t;
  output : string;
  exit_code : int;
}

(* ------------------------------------------------------------------ *)
(* Reference interpreter: walks the MIR in place, resolving labels     *)
(* through per-function hashtables.  Kept as the oracle the fast       *)
(* backends ({!Compiled}, {!Native}) are cross-checked against.        *)
(* ------------------------------------------------------------------ *)

(* Pre-resolved view of a function: block array, label -> index map, and
   per-block site numbers for branch predictor indexing. *)
type func_image = {
  fn : Mir.Func.t;
  blocks : Mir.Block.t array;
  index_of : (string, int) Hashtbl.t;
  sites : int array;  (* site id of each block's terminator *)
  nregs : int;
}

type image = {
  funcs : (string, func_image) Hashtbl.t;
}

let build_image (p : Mir.Program.t) =
  let funcs = Hashtbl.create 16 in
  let next_site = ref 0 in
  List.iter
    (fun (fn : Mir.Func.t) ->
      let blocks = Array.of_list fn.Mir.Func.blocks in
      let index_of = Hashtbl.create (Array.length blocks) in
      Array.iteri
        (fun i (b : Mir.Block.t) -> Hashtbl.replace index_of b.Mir.Block.label i)
        blocks;
      let sites =
        Array.map
          (fun (_ : Mir.Block.t) ->
            let s = !next_site in
            incr next_site;
            s)
          blocks
      in
      Hashtbl.replace funcs fn.Mir.Func.name
        { fn; blocks; index_of; sites; nregs = Image.max_reg_of fn })
    p.Mir.Program.funcs;
  { funcs }

(* site naming goes through the pre-decoded image, whose dense
   program-order numbering matches [build_image] above; consumers that
   already hold an {!Image.t} should call {!Image.sites} directly and
   skip the lowering entirely *)
let sites p = Image.sites (Image.build p)

let site_of p ~func ~label =
  let img = Image.build p in
  match Image.find_func img func with
  | None -> trap "site_of: unknown function %s" func
  | Some _ -> (
    match Image.site_of img ~func ~label with
    | Some s -> s
    | None -> trap "site_of: unknown label %s" label)

type state = {
  image : image;
  memory : (string, int array) Hashtbl.t;
  counters : Counters.t;
  out : Buffer.t;
  input : string;
  mutable input_pos : int;
  mutable cc : int * int;  (* operands of the last executed cmp *)
  mutable fuel_left : int;
  config : config;
  profile : Profile.t option;
  sink : Predictor.sink;
  on_block : (func:string -> label:string -> unit) option;
}

let charge st n =
  st.counters.Counters.insns <- st.counters.Counters.insns + n;
  st.fuel_left <- st.fuel_left - n;
  if st.fuel_left < 0 then trap "fuel exhausted (%d instructions)" st.config.fuel

let getchar st =
  if st.input_pos >= String.length st.input then -1
  else begin
    let c = Char.code st.input.[st.input_pos] in
    st.input_pos <- st.input_pos + 1;
    c
  end

let memory_cell st sym idx =
  match Hashtbl.find_opt st.memory sym with
  | None -> trap "access to unknown global %s" sym
  | Some arr ->
    if idx < 0 || idx >= Array.length arr then
      trap "out-of-bounds access %s[%d] (size %d)" sym idx (Array.length arr);
    arr, idx

let operand_value regs = function
  | Mir.Operand.Reg r -> regs.(Mir.Reg.to_int r)
  | Mir.Operand.Imm n -> n

let set_reg regs r v = regs.(Mir.Reg.to_int r) <- v

(* Built-in functions; returns Some value for value-producing builtins. *)
let builtin st name args =
  match name, args with
  | "getchar", [] -> Some (getchar st)
  | "putchar", [ c ] ->
    Buffer.add_char st.out (Char.chr (c land 255));
    Some c
  | "print_int", [ n ] ->
    Buffer.add_string st.out (string_of_int n);
    Some 0
  | "exit", [ code ] -> raise (Program_exit code)
  | ("getchar" | "putchar" | "print_int" | "exit"), _ ->
    trap "builtin %s: wrong number of arguments" name
  | _, _ -> None

let rec exec_call st depth name args =
  match builtin st name args with
  | Some v -> v
  | None -> (
    match Hashtbl.find_opt st.image.funcs name with
    | None -> trap "call to unknown function %s" name
    | Some fi ->
      if depth >= st.config.max_depth then trap "call depth exceeded in %s" name;
      let regs = Array.make (max fi.nregs 1) 0 in
      List.iteri
        (fun i r ->
          match List.nth_opt args i with
          | Some v -> set_reg regs r v
          | None -> trap "too few arguments to %s" name)
        fi.fn.Mir.Func.params;
      exec_blocks st depth fi regs 0)

and exec_insn st depth regs (i : Mir.Insn.t) =
  match i with
  | Mir.Insn.Profile_range (id, r) ->
    (match st.profile with
    | Some p -> Profile.record_range p id regs.(Mir.Reg.to_int r)
    | None -> ())
  | Mir.Insn.Profile_comb id ->
    (match st.profile with
    | Some p ->
      Profile.record_comb p id ~read_reg:(fun r -> regs.(Mir.Reg.to_int r))
    | None -> ())
  | Mir.Insn.Mov (r, o) ->
    charge st 1;
    set_reg regs r (operand_value regs o)
  | Mir.Insn.Unop (op, r, o) ->
    charge st 1;
    set_reg regs r (Mir.Insn.eval_unop op (operand_value regs o))
  | Mir.Insn.Binop (op, r, a, b) ->
    charge st 1;
    let va = operand_value regs a and vb = operand_value regs b in
    let v =
      try Mir.Insn.eval_binop op va vb
      with Division_by_zero -> trap "division by zero"
    in
    set_reg regs r v
  | Mir.Insn.Load (r, sym, idx) ->
    charge st 1;
    st.counters.Counters.loads <- st.counters.Counters.loads + 1;
    let arr, i = memory_cell st sym (operand_value regs idx) in
    set_reg regs r arr.(i)
  | Mir.Insn.Store (sym, idx, v) ->
    charge st 1;
    st.counters.Counters.stores <- st.counters.Counters.stores + 1;
    let arr, i = memory_cell st sym (operand_value regs idx) in
    arr.(i) <- operand_value regs v
  | Mir.Insn.Cmp (a, b) ->
    charge st 1;
    st.cc <- (operand_value regs a, operand_value regs b)
  | Mir.Insn.Call (dst, name, args) ->
    charge st 1;
    st.counters.Counters.calls <- st.counters.Counters.calls + 1;
    let v = exec_call st (depth + 1) name (List.map (operand_value regs) args) in
    (match dst with Some r -> set_reg regs r v | None -> ())
  | Mir.Insn.Nop ->
    charge st 1;
    st.counters.Counters.nops <- st.counters.Counters.nops + 1

(* Execute the delay slot of an emitted control transfer. *)
and exec_delay st depth regs (t : Mir.Block.term) =
  match t.Mir.Block.delay with
  | Some i -> exec_insn st depth regs i
  | None ->
    charge st 1;
    st.counters.Counters.nops <- st.counters.Counters.nops + 1

(* Charge the synthetic jump needed when a not-taken branch does not fall
   through to the next block in the layout. *)
and charge_layout_jump st =
  charge st 2 (* jmp + its (nop) delay slot *);
  st.counters.Counters.jumps <- st.counters.Counters.jumps + 1;
  st.counters.Counters.nops <- st.counters.Counters.nops + 1

and exec_blocks st depth fi regs start_index =
  let block_index = ref start_index in
  let return_value = ref None in
  let running = ref true in
  while !running do
    (match st.config.cancel with
    | Some c -> if c () then raise Runtime.Cancelled
    | None -> ());
    let b = fi.blocks.(!block_index) in
    (match st.on_block with
    | Some f -> f ~func:fi.fn.Mir.Func.name ~label:b.Mir.Block.label
    | None -> ());
    List.iter (exec_insn st depth regs) b.Mir.Block.insns;
    let layout_next =
      if !block_index + 1 < Array.length fi.blocks then
        Some fi.blocks.(!block_index + 1).Mir.Block.label
      else None
    in
    let goto label =
      match Hashtbl.find_opt fi.index_of label with
      | Some i -> block_index := i
      | None -> trap "jump to unknown label %s" label
    in
    let term = b.Mir.Block.term in
    match term.Mir.Block.kind with
    | Mir.Block.Br (cond, taken_l, not_taken_l) ->
      charge st 1;
      st.counters.Counters.cond_branches <-
        st.counters.Counters.cond_branches + 1;
      let a, cb = st.cc in
      let taken = Mir.Cond.eval cond a cb in
      if taken then
        st.counters.Counters.taken_branches <-
          st.counters.Counters.taken_branches + 1;
      Predictor.sink_event st.sink ~site:fi.sites.(!block_index) ~taken;
      (if term.Mir.Block.annul then
         match term.Mir.Block.delay with
         | Some i when taken -> exec_insn st depth regs i
         | Some _ -> () (* annulled: the slot is squashed, nothing executes *)
         | None ->
           charge st 1;
           st.counters.Counters.nops <- st.counters.Counters.nops + 1
       else exec_delay st depth regs term);
      if taken then goto taken_l
      else begin
        (match layout_next with
        | Some next when String.equal next not_taken_l -> ()
        | Some _ | None -> charge_layout_jump st);
        goto not_taken_l
      end
    | Mir.Block.Jmp l ->
      (match layout_next with
      | Some next when String.equal next l -> ()
      | Some _ | None ->
        charge st 1;
        st.counters.Counters.jumps <- st.counters.Counters.jumps + 1;
        exec_delay st depth regs term);
      goto l
    | Mir.Block.Switch _ ->
      trap "unlowered switch reached the simulator (%s)" b.Mir.Block.label
    | Mir.Block.Jtab (r, id) ->
      charge st 1;
      st.counters.Counters.indirect_jumps <-
        st.counters.Counters.indirect_jumps + 1;
      exec_delay st depth regs term;
      let table = Mir.Func.jtab fi.fn id in
      let idx = regs.(Mir.Reg.to_int r) in
      if idx < 0 || idx >= Array.length table then
        trap "jump table index %d out of bounds (%s)" idx b.Mir.Block.label;
      goto table.(idx)
    | Mir.Block.Ret v ->
      charge st 1;
      st.counters.Counters.returns <- st.counters.Counters.returns + 1;
      exec_delay st depth regs term;
      return_value := Option.map (operand_value regs) v;
      running := false
  done;
  match !return_value with Some v -> v | None -> 0

let run_reference ?(config = default_config) ?profile
    ?(sink = Predictor.Sink_none) ?on_block (p : Mir.Program.t) ~input =
  let image = build_image p in
  let memory = Hashtbl.create 64 in
  List.iter
    (fun (g : Mir.Program.global) ->
      let arr =
        match g.Mir.Program.init with
        | Some init ->
          let arr = Array.make g.Mir.Program.size 0 in
          Array.blit init 0 arr 0 (Array.length init);
          arr
        | None -> Array.make g.Mir.Program.size 0
      in
      Hashtbl.replace memory g.Mir.Program.gname arr)
    p.Mir.Program.globals;
  let st =
    {
      image;
      memory;
      counters = Counters.make ();
      out = Buffer.create 1024;
      input;
      input_pos = 0;
      cc = (0, 0);
      fuel_left = config.fuel;
      config;
      profile;
      sink;
      on_block;
    }
  in
  let exit_code =
    try exec_call st 0 "main" [] with Program_exit code -> code
  in
  { counters = st.counters; output = Buffer.contents st.out; exit_code }

type backend = [ `Reference | `Compiled | `Native ]

let backend_name = function
  | `Reference -> "reference"
  | `Compiled -> "compiled"
  | `Native -> "native"

let backend_of_name = function
  | "reference" | "ref" -> Some `Reference
  | "compiled" | "closure" -> Some `Compiled
  | "native" -> Some `Native
  | _ -> None

let run ?config ?profile ?sink ?on_block ?image ?cache_dir
    ?(backend = `Compiled) (p : Mir.Program.t) ~input =
  let image () = match image with Some i -> i | None -> Image.build p in
  match backend with
  | `Reference -> run_reference ?config ?profile ?sink ?on_block p ~input
  | `Compiled ->
    Compiled.exec ?config ?profile ?sink ?on_block
      (Compiled.compile (image ()))
      ~input
  | `Native ->
    Native.run_image ?config ?profile ?sink ?on_block ?cache_dir (image ())
      ~input

let branch_counts ~config ~on_block p ~inputs =
  let sites = sites p in
  let counts = Hashtbl.create 64 in
  let count ~site ~taken =
    let key = sites.(site) in
    let t, f = Option.value ~default:(0, 0) (Hashtbl.find_opt counts key) in
    Hashtbl.replace counts key (if taken then (t + 1, f) else (t, f + 1))
  in
  List.iter
    (fun input ->
      try
        ignore
          (run_reference ~config ~on_block ~sink:(Predictor.Sink_fun count) p
             ~input)
      with Trap _ -> () (* counts up to a trap still count *))
    inputs;
  counts
