(* Closure-compiled execution backend ("threaded code").

   Each {!Image.pblock} is compiled once into an OCaml closure that
   executes its instructions straight-line and returns the index of the
   next block to run; there is no per-instruction [match] dispatch —
   every instruction is a
   specialized closure built at compile time (operand shapes resolved,
   builtins and callees bound, constants folded), fused into one code
   chain per block.

   Counters and fuel are charged in the block-granular batches of
   {!Image.plan}: a closure flushing the precomputed batch is placed
   before every instruction the plan flushes at, and the terminator
   pays the batch still owed.  The plan decides where batches go; this
   module only turns them into closures.

   A compare-and-branch block ([cmp reg, imm], a conditional branch and
   an empty delay slot, the shape of a range-test sequence) compiles to
   a single closure rather than a body chain and a terminator.

   Measurement is fused into the loop: branch terminators deliver their
   outcome to a {!Predictor.sink} held in the run state.  A bank sink
   appends the event to the bank's own buffer, which the bank folds one
   table size at a time when it fills or is read, so the measure stage
   performs zero allocation and no predictor update per branch
   event. *)

open Runtime

type state = {
  memory : int array array;  (* indexed by global slot *)
  counters : Counters.t;
  out : Buffer.t;
  input : string;
  mutable input_pos : int;
  mutable cc_a : int;
  mutable cc_b : int;
  mutable fuel_left : int;
  mutable depth : int;       (* depth of the currently-running frame *)
  mutable frames : int array array;  (* register file per call depth *)
  mutable ret : int;         (* return value of the innermost frame *)
  fuel : int;                (* config.fuel, for the trap message *)
  max_depth : int;
  profile : Profile.t option;
  mutable sink : Predictor.sink;
  on_block : (func:string -> label:string -> unit) option;
  cancel : (unit -> bool) option;
}

(* straight-line code: a compiled instruction (or fused run of them) *)
type code = state -> int array -> unit

(* a compiled block: runs the body, then returns the next block index
   within the same function, or -1 to return from the function *)
type blockcode = state -> int array -> int

type cfunc = {
  c_name : string;
  c_params : int array;
  c_nregs : int;
  mutable c_blocks : blockcode array;  (* backpatched after compilation *)
}

type t = {
  c_image : Image.t;
  c_funcs : cfunc array;
}

let image t = t.c_image

(* The register file of call depth [d], with its first [nregs] slots
   zeroed: what a fresh [Array.make nregs 0] gives, without allocating
   one per call.  Calls nest, so depth [d]'s file is free whenever a
   frame at depth [d] is entered.  A file only grows; slots past
   [nregs] are never read. *)
let frame st d nregs =
  if d >= Array.length st.frames then begin
    let bigger = Array.make (max (d + 1) (2 * Array.length st.frames)) [||] in
    Array.blit st.frames 0 bigger 0 (Array.length st.frames);
    st.frames <- bigger
  end;
  let f = Array.unsafe_get st.frames d in
  if Array.length f < nregs then begin
    let f = Array.make nregs 0 in
    Array.unsafe_set st.frames d f;
    f
  end
  else begin
    for i = 0 to nregs - 1 do
      Array.unsafe_set f i 0
    done;
    f
  end

(* ------------------------------------------------------------------ *)
(* Charging                                                            *)
(* ------------------------------------------------------------------ *)

let[@inline] charge st n =
  st.counters.Counters.insns <- st.counters.Counters.insns + n;
  st.fuel_left <- st.fuel_left - n;
  if st.fuel_left < 0 then trap "fuel exhausted (%d instructions)" st.fuel

(* flush a pending batch of [pi] instructions of which [pn] are nops *)
let[@inline] flush st pi pn =
  st.counters.Counters.insns <- st.counters.Counters.insns + pi;
  if pn > 0 then st.counters.Counters.nops <- st.counters.Counters.nops + pn;
  st.fuel_left <- st.fuel_left - pi;
  if st.fuel_left < 0 then trap "fuel exhausted (%d instructions)" st.fuel

let flush_code pi pn : code =
  if pn = 0 then fun st _ -> charge st pi else fun st _ -> flush st pi pn

(* the synthetic jump when a not-taken branch does not fall through *)
let[@inline] charge_layout_jump st =
  let c = st.counters in
  c.Counters.jumps <- c.Counters.jumps + 1;
  c.Counters.nops <- c.Counters.nops + 1;
  charge st 2

(* an unfilled delay slot: one counted nop *)
let[@inline] charge_nop st =
  st.counters.Counters.nops <- st.counters.Counters.nops + 1;
  charge st 1

(* ------------------------------------------------------------------ *)
(* Code fusion                                                         *)
(* ------------------------------------------------------------------ *)

let rec seq (codes : code list) : code =
  match codes with
  | [] -> fun _ _ -> ()
  | [ a ] -> a
  | [ a; b ] ->
    fun st regs ->
      a st regs;
      b st regs
  | [ a; b; c ] ->
    fun st regs ->
      a st regs;
      b st regs;
      c st regs
  | a :: b :: c :: d :: rest ->
    let k = seq rest in
    fun st regs ->
      a st regs;
      b st regs;
      c st regs;
      d st regs;
      k st regs

(* ------------------------------------------------------------------ *)
(* Instruction compilation                                             *)
(* ------------------------------------------------------------------ *)

let operand = function
  | Image.Preg r -> fun regs -> Array.unsafe_get regs r
  | Image.Pimm n -> fun _ -> n

let getchar st =
  if st.input_pos >= String.length st.input then -1
  else begin
    let c = Char.code (String.unsafe_get st.input st.input_pos) in
    st.input_pos <- st.input_pos + 1;
    c
  end

(* run the block list of a function; the entry block is index 0.  The
   cooperative cancellation flag is polled once per block, but only on
   the dedicated loop so an uncancellable run pays nothing for it. *)
let run_blocks st (blocks : blockcode array) regs =
  if Array.length blocks = 0 then
    (* same failure as the other backends indexing an empty block array *)
    raise (Invalid_argument "index out of bounds");
  let i = ref 0 in
  (match st.cancel with
  | None ->
    while !i >= 0 do
      i := (Array.unsafe_get blocks !i) st regs
    done
  | Some c ->
    while !i >= 0 do
      if c () then raise Cancelled;
      i := (Array.unsafe_get blocks !i) st regs
    done);
  st.ret

let compile_binop op r a b =
  let open Mir.Insn in
  match op, a, b with
  (* division and modulus by a register (or zero) can trap *)
  | (Div | Rem), _, Image.Pimm 0 ->
    fun _ _ -> trap "division by zero"
  | Div, _, Image.Pimm n ->
    let x = operand a in
    fun _ regs -> Array.unsafe_set regs r (x regs / n)
  | Rem, _, Image.Pimm n ->
    let x = operand a in
    fun _ regs -> Array.unsafe_set regs r (x regs mod n)
  | Div, _, Image.Preg y ->
    let x = operand a in
    fun _ regs ->
      let d = Array.unsafe_get regs y in
      if d = 0 then trap "division by zero";
      Array.unsafe_set regs r (x regs / d)
  | Rem, _, Image.Preg y ->
    let x = operand a in
    fun _ regs ->
      let d = Array.unsafe_get regs y in
      if d = 0 then trap "division by zero";
      Array.unsafe_set regs r (x regs mod d)
  (* the pure operators, specialized on operand shape *)
  | Add, Image.Preg x, Image.Preg y ->
    fun _ regs ->
      Array.unsafe_set regs r
        (Array.unsafe_get regs x + Array.unsafe_get regs y)
  | Add, Image.Preg x, Image.Pimm n ->
    fun _ regs -> Array.unsafe_set regs r (Array.unsafe_get regs x + n)
  | Add, Image.Pimm n, Image.Preg y ->
    fun _ regs -> Array.unsafe_set regs r (n + Array.unsafe_get regs y)
  | Sub, Image.Preg x, Image.Preg y ->
    fun _ regs ->
      Array.unsafe_set regs r
        (Array.unsafe_get regs x - Array.unsafe_get regs y)
  | Sub, Image.Preg x, Image.Pimm n ->
    fun _ regs -> Array.unsafe_set regs r (Array.unsafe_get regs x - n)
  | Sub, Image.Pimm n, Image.Preg y ->
    fun _ regs -> Array.unsafe_set regs r (n - Array.unsafe_get regs y)
  | Mul, Image.Preg x, Image.Preg y ->
    fun _ regs ->
      Array.unsafe_set regs r
        (Array.unsafe_get regs x * Array.unsafe_get regs y)
  | Mul, Image.Preg x, Image.Pimm n ->
    fun _ regs -> Array.unsafe_set regs r (Array.unsafe_get regs x * n)
  | Mul, Image.Pimm n, Image.Preg y ->
    fun _ regs -> Array.unsafe_set regs r (n * Array.unsafe_get regs y)
  | And, Image.Preg x, Image.Preg y ->
    fun _ regs ->
      Array.unsafe_set regs r
        (Array.unsafe_get regs x land Array.unsafe_get regs y)
  | And, Image.Preg x, Image.Pimm n ->
    fun _ regs -> Array.unsafe_set regs r (Array.unsafe_get regs x land n)
  | Or, Image.Preg x, Image.Preg y ->
    fun _ regs ->
      Array.unsafe_set regs r
        (Array.unsafe_get regs x lor Array.unsafe_get regs y)
  | Or, Image.Preg x, Image.Pimm n ->
    fun _ regs -> Array.unsafe_set regs r (Array.unsafe_get regs x lor n)
  | Xor, Image.Preg x, Image.Preg y ->
    fun _ regs ->
      Array.unsafe_set regs r
        (Array.unsafe_get regs x lxor Array.unsafe_get regs y)
  | Xor, Image.Preg x, Image.Pimm n ->
    fun _ regs -> Array.unsafe_set regs r (Array.unsafe_get regs x lxor n)
  | Shl, Image.Preg x, Image.Pimm n ->
    let s = n land 63 in
    fun _ regs -> Array.unsafe_set regs r (Array.unsafe_get regs x lsl s)
  | Shr, Image.Preg x, Image.Pimm n ->
    let s = n land 63 in
    fun _ regs -> Array.unsafe_set regs r (Array.unsafe_get regs x asr s)
  | (Add | Sub | Mul | And | Or | Xor | Shl | Shr), _, _ -> (
    (* rare shapes: immediate-immediate folds to a constant move, the
       rest evaluate both operands generically *)
    match a, b with
    | Image.Pimm x, Image.Pimm y ->
      let v = eval_binop op x y in
      fun _ regs -> Array.unsafe_set regs r v
    | _ ->
      let x = operand a and y = operand b in
      (fun _ regs -> Array.unsafe_set regs r (eval_binop op (x regs) (y regs))))

let compile_insn (cfuncs : cfunc array) (globals : Image.global array)
    (i : Image.pinsn) : code =
  match i with
  | Image.Pnop -> fun _ _ -> ()
  | Image.Pmov (r, Image.Pimm n) ->
    fun _ regs -> Array.unsafe_set regs r n
  | Image.Pmov (r, Image.Preg s) ->
    fun _ regs -> Array.unsafe_set regs r (Array.unsafe_get regs s)
  | Image.Punop (Mir.Insn.Neg, r, o) ->
    let x = operand o in
    fun _ regs -> Array.unsafe_set regs r (-x regs)
  | Image.Punop (Mir.Insn.Not, r, o) ->
    let x = operand o in
    fun _ regs -> Array.unsafe_set regs r (if x regs = 0 then 1 else 0)
  | Image.Pbinop (op, r, a, b) -> compile_binop op r a b
  | Image.Pcmp (Image.Preg x, Image.Preg y) ->
    fun st regs ->
      st.cc_a <- Array.unsafe_get regs x;
      st.cc_b <- Array.unsafe_get regs y
  | Image.Pcmp (Image.Preg x, Image.Pimm k) ->
    fun st regs ->
      st.cc_a <- Array.unsafe_get regs x;
      st.cc_b <- k
  | Image.Pcmp (Image.Pimm n, Image.Preg y) ->
    fun st regs ->
      st.cc_a <- n;
      st.cc_b <- Array.unsafe_get regs y
  | Image.Pcmp (Image.Pimm n, Image.Pimm k) ->
    fun st _ ->
      st.cc_a <- n;
      st.cc_b <- k
  | Image.Pload (r, slot, Image.Preg ix) ->
    let name = globals.(slot).Image.g_name in
    fun st regs ->
      st.counters.Counters.loads <- st.counters.Counters.loads + 1;
      let arr = Array.unsafe_get st.memory slot in
      let i = Array.unsafe_get regs ix in
      if i < 0 || i >= Array.length arr then
        trap "out-of-bounds access %s[%d] (size %d)" name i (Array.length arr);
      Array.unsafe_set regs r (Array.unsafe_get arr i)
  | Image.Pload (r, slot, Image.Pimm i) ->
    let name = globals.(slot).Image.g_name in
    fun st regs ->
      st.counters.Counters.loads <- st.counters.Counters.loads + 1;
      let arr = Array.unsafe_get st.memory slot in
      if i < 0 || i >= Array.length arr then
        trap "out-of-bounds access %s[%d] (size %d)" name i (Array.length arr);
      Array.unsafe_set regs r (Array.unsafe_get arr i)
  | Image.Pstore (slot, idx, v) ->
    let name = globals.(slot).Image.g_name in
    let ix = operand idx and ve = operand v in
    fun st regs ->
      st.counters.Counters.stores <- st.counters.Counters.stores + 1;
      let arr = Array.unsafe_get st.memory slot in
      let i = ix regs in
      if i < 0 || i >= Array.length arr then
        trap "out-of-bounds access %s[%d] (size %d)" name i (Array.length arr);
      Array.unsafe_set arr i (ve regs)
  | Image.Pcall (dst, fid, args) ->
    let callee = cfuncs.(fid) in
    let nparams = Array.length callee.c_params in
    if Array.length args < nparams then
      (fun st _ ->
        st.counters.Counters.calls <- st.counters.Counters.calls + 1;
        if st.depth + 1 >= st.max_depth then
          trap "call depth exceeded in %s" callee.c_name;
        trap "too few arguments to %s" callee.c_name)
    else begin
      (* bind the first nparams arguments straight into the callee's
         zeroed register file; extra arguments are pure and unused *)
      let binds =
        Array.init nparams (fun i -> (callee.c_params.(i), operand args.(i)))
      in
      let nregs = max callee.c_nregs 1 in
      fun st regs ->
        st.counters.Counters.calls <- st.counters.Counters.calls + 1;
        let d = st.depth + 1 in
        if d >= st.max_depth then
          trap "call depth exceeded in %s" callee.c_name;
        let cregs = frame st d nregs in
        for i = 0 to nparams - 1 do
          let slot, ev = Array.unsafe_get binds i in
          Array.unsafe_set cregs slot (ev regs)
        done;
        st.depth <- d;
        let v = run_blocks st callee.c_blocks cregs in
        st.depth <- d - 1;
        if dst >= 0 then Array.unsafe_set regs dst v
    end
  | Image.Pbuiltin (dst, b, args) -> (
    match b with
    | Image.Bgetchar ->
      if dst >= 0 then
        (fun st regs ->
          st.counters.Counters.calls <- st.counters.Counters.calls + 1;
          Array.unsafe_set regs dst (getchar st))
      else
        (fun st _ ->
          st.counters.Counters.calls <- st.counters.Counters.calls + 1;
          ignore (getchar st))
    | Image.Bputchar ->
      let ev = operand args.(0) in
      fun st regs ->
        st.counters.Counters.calls <- st.counters.Counters.calls + 1;
        let c = ev regs in
        Buffer.add_char st.out (Char.chr (c land 255));
        if dst >= 0 then Array.unsafe_set regs dst c
    | Image.Bprint_int ->
      let ev = operand args.(0) in
      fun st regs ->
        st.counters.Counters.calls <- st.counters.Counters.calls + 1;
        Buffer.add_string st.out (string_of_int (ev regs));
        if dst >= 0 then Array.unsafe_set regs dst 0
    | Image.Bexit ->
      let ev = operand args.(0) in
      (fun st regs ->
        st.counters.Counters.calls <- st.counters.Counters.calls + 1;
        raise (Program_exit (ev regs))))
  | Image.Pprofile_range (id, r) ->
    (fun st regs ->
      match st.profile with
      | Some p -> Profile.record_range p id (Array.unsafe_get regs r)
      | None -> ())
  | Image.Pprofile_comb id ->
    (fun st regs ->
      match st.profile with
      | Some p ->
        Profile.record_comb p id ~read_reg:(fun r ->
            regs.(Mir.Reg.to_int r))
      | None -> ())
  | Image.Ptrap_insn msg ->
    (* uncharged: a trap thunk raises before paying for itself *)
    fun _ _ -> raise (Trap msg)

(* a delay-slot instruction executed standalone: it pays its own charge *)
let compile_delay_insn cfuncs globals i : code =
  match Image.batching i with
  | Image.Bnop -> fun st _ -> charge_nop st
  | Image.Bpure | Image.Beffect ->
    let c = compile_insn cfuncs globals i in
    fun st regs ->
      charge st 1;
      c st regs
  | Image.Bobserve -> compile_insn cfuncs globals i

(* the delay slot of a non-annulled transfer: filled or a counted nop *)
let compile_delay cfuncs globals = function
  | Some i -> compile_delay_insn cfuncs globals i
  | None -> fun st _ -> charge_nop st

(* ------------------------------------------------------------------ *)
(* Terminator compilation                                              *)
(* ------------------------------------------------------------------ *)

let[@inline] resolve (unknowns : string array) target =
  if target >= 0 then target
  else trap "jump to unknown label %s" unknowns.(-target - 1)

let[@inline] deliver st site taken =
  match st.sink with
  | Predictor.Sink_none -> ()
  | Predictor.Sink_bank bk -> Predictor.bank_access bk ~site ~taken
  | Predictor.Sink_fun f -> f ~site ~taken

(* A conditional branch after its outcome is known.  Each branch
   closure below tests its condition inline (one closure per
   {!Mir.Cond.t}, chosen at compile time) and then runs this, so the
   test costs no indirect call. *)
let[@inline] branch st regs ~site ~taken ~t ~nt ~nt_falls ~unknowns
    ~(delay_taken : code) ~(delay_not_taken : code) =
  if taken then begin
    st.counters.Counters.taken_branches <-
      st.counters.Counters.taken_branches + 1;
    deliver st site true;
    delay_taken st regs;
    resolve unknowns t
  end
  else begin
    deliver st site false;
    delay_not_taken st regs;
    if not nt_falls then charge_layout_jump st;
    resolve unknowns nt
  end

(* the batch owed up to and including the branch, then its count *)
let[@inline] enter st chg pn =
  flush st chg pn;
  st.counters.Counters.cond_branches <- st.counters.Counters.cond_branches + 1

let compile_br ~site ~t ~nt ~nt_falls ~unknowns ~delay_taken
    ~delay_not_taken ~chg ~pn cond : blockcode =
  match cond with
  | Mir.Cond.Eq ->
    fun st regs ->
      enter st chg pn;
      branch st regs ~site ~taken:(st.cc_a = st.cc_b) ~t ~nt ~nt_falls
        ~unknowns ~delay_taken ~delay_not_taken
  | Mir.Cond.Ne ->
    fun st regs ->
      enter st chg pn;
      branch st regs ~site ~taken:(st.cc_a <> st.cc_b) ~t ~nt ~nt_falls
        ~unknowns ~delay_taken ~delay_not_taken
  | Mir.Cond.Lt ->
    fun st regs ->
      enter st chg pn;
      branch st regs ~site ~taken:(st.cc_a < st.cc_b) ~t ~nt ~nt_falls
        ~unknowns ~delay_taken ~delay_not_taken
  | Mir.Cond.Le ->
    fun st regs ->
      enter st chg pn;
      branch st regs ~site ~taken:(st.cc_a <= st.cc_b) ~t ~nt ~nt_falls
        ~unknowns ~delay_taken ~delay_not_taken
  | Mir.Cond.Gt ->
    fun st regs ->
      enter st chg pn;
      branch st regs ~site ~taken:(st.cc_a > st.cc_b) ~t ~nt ~nt_falls
        ~unknowns ~delay_taken ~delay_not_taken
  | Mir.Cond.Ge ->
    fun st regs ->
      enter st chg pn;
      branch st regs ~site ~taken:(st.cc_a >= st.cc_b) ~t ~nt ~nt_falls
        ~unknowns ~delay_taken ~delay_not_taken

(* pending = charge batch accumulated over the block body, owed before
   the terminator's own observable behaviour *)
let compile_term cfuncs globals unknowns ~pending_i ~pending_n
    (b : Image.pblock) : blockcode =
  let site = b.Image.pb_site in
  let label = b.Image.pb_label in
  match b.Image.pb_term with
  | Image.Pbr (cond, t, nt, nt_falls) ->
    (* the delay slot behaves differently on the two arms when annulled *)
    let delay_taken, delay_not_taken =
      if b.Image.pb_annul then
        match b.Image.pb_delay with
        | Some i ->
          ((compile_delay_insn cfuncs globals i : code), fun _ _ -> ())
        | None ->
          let nop st _ = charge_nop st in
          ((nop : code), (nop : code))
      else
        let d = compile_delay cfuncs globals b.Image.pb_delay in
        (d, d)
    in
    compile_br ~site ~t ~nt ~nt_falls ~unknowns ~delay_taken ~delay_not_taken
      ~chg:(pending_i + 1) ~pn:pending_n cond
  | Image.Pjmp (target, falls) ->
    if falls then begin
      (* costs nothing; only the body's pending batch is owed *)
      if pending_i = 0 && pending_n = 0 then fun _ _ -> target
      else
        fun st _ ->
          flush st pending_i pending_n;
          target
    end
    else begin
      let d = compile_delay cfuncs globals b.Image.pb_delay in
      let chg = pending_i + 1 in
      fun st regs ->
        flush st chg pending_n;
        st.counters.Counters.jumps <- st.counters.Counters.jumps + 1;
        d st regs;
        resolve unknowns target
    end
  | Image.Pjtab (r, table) ->
    let d = compile_delay cfuncs globals b.Image.pb_delay in
    let chg = pending_i + 1 in
    let n = Array.length table in
    fun st regs ->
      flush st chg pending_n;
      st.counters.Counters.indirect_jumps <-
        st.counters.Counters.indirect_jumps + 1;
      d st regs;
      let idx = Array.unsafe_get regs r in
      if idx < 0 || idx >= n then
        trap "jump table index %d out of bounds (%s)" idx label;
      resolve unknowns (Array.unsafe_get table idx)
  | Image.Pret v ->
    let d = compile_delay cfuncs globals b.Image.pb_delay in
    let chg = pending_i + 1 in
    let set_ret : code =
      match v with
      | None -> fun st _ -> st.ret <- 0
      | Some (Image.Pimm n) -> fun st _ -> st.ret <- n
      | Some (Image.Preg r) ->
        fun st regs -> st.ret <- Array.unsafe_get regs r
    in
    fun st regs ->
      flush st chg pending_n;
      st.counters.Counters.returns <- st.counters.Counters.returns + 1;
      (* the delay slot runs before the return value is read *)
      d st regs;
      set_ret st regs;
      -1
  | Image.Ptrap_term msg ->
    (* uncharged, like the trap instructions; the body's batch is
       still owed so an earlier fuel exhaustion wins as it should *)
    fun st _ ->
      flush st pending_i pending_n;
      raise (Trap msg)
  | Image.Praise_term e ->
    fun st _ ->
      flush st pending_i pending_n;
      raise e

(* ------------------------------------------------------------------ *)
(* Block and program compilation                                       *)
(* ------------------------------------------------------------------ *)

let[@inline] note_block st fname label =
  match st.on_block with
  | Some f -> f ~func:fname ~label
  | None -> ()

(* A compare-and-branch block: [cmp reg, imm] followed by a conditional
   branch with an empty delay slot, the block shape of a range-test
   sequence and the commonest dynamic block.  One closure runs it all,
   step for step in the order of the generic path below. *)
let[@inline] cmp_enter st regs ~fname ~label ~x ~k ~chg ~pn =
  note_block st fname label;
  let a = Array.unsafe_get regs x in
  (* successors may read the condition codes *)
  st.cc_a <- a;
  st.cc_b <- k;
  enter st chg pn;
  a

let[@inline] cmp_branch st ~site ~taken ~t ~nt ~nt_falls ~unknowns =
  if taken then begin
    st.counters.Counters.taken_branches <-
      st.counters.Counters.taken_branches + 1;
    deliver st site true;
    charge_nop st;
    resolve unknowns t
  end
  else begin
    deliver st site false;
    charge_nop st;
    if not nt_falls then charge_layout_jump st;
    resolve unknowns nt
  end

let compile_cmp_br ~fname ~label ~x ~k ~site ~t ~nt ~nt_falls ~unknowns ~chg
    ~pn cond : blockcode =
  match cond with
  | Mir.Cond.Eq ->
    fun st regs ->
      let a = cmp_enter st regs ~fname ~label ~x ~k ~chg ~pn in
      cmp_branch st ~site ~taken:(a = k) ~t ~nt ~nt_falls ~unknowns
  | Mir.Cond.Ne ->
    fun st regs ->
      let a = cmp_enter st regs ~fname ~label ~x ~k ~chg ~pn in
      cmp_branch st ~site ~taken:(a <> k) ~t ~nt ~nt_falls ~unknowns
  | Mir.Cond.Lt ->
    fun st regs ->
      let a = cmp_enter st regs ~fname ~label ~x ~k ~chg ~pn in
      cmp_branch st ~site ~taken:(a < k) ~t ~nt ~nt_falls ~unknowns
  | Mir.Cond.Le ->
    fun st regs ->
      let a = cmp_enter st regs ~fname ~label ~x ~k ~chg ~pn in
      cmp_branch st ~site ~taken:(a <= k) ~t ~nt ~nt_falls ~unknowns
  | Mir.Cond.Gt ->
    fun st regs ->
      let a = cmp_enter st regs ~fname ~label ~x ~k ~chg ~pn in
      cmp_branch st ~site ~taken:(a > k) ~t ~nt ~nt_falls ~unknowns
  | Mir.Cond.Ge ->
    fun st regs ->
      let a = cmp_enter st regs ~fname ~label ~x ~k ~chg ~pn in
      cmp_branch st ~site ~taken:(a >= k) ~t ~nt ~nt_falls ~unknowns

let compile_block cfuncs globals (f : Image.pfunc) (b : Image.pblock) :
    blockcode =
  let unknowns = f.Image.pf_unknown in
  let plan = Image.plan b in
  let fname = f.Image.pf_name in
  let label = b.Image.pb_label in
  match b.Image.pb_insns, b.Image.pb_term, b.Image.pb_delay with
  | ( [| Image.Pcmp (Image.Preg x, Image.Pimm k) |],
      Image.Pbr (cond, t, nt, nt_falls),
      None )
    when plan.Image.flushes.(0) = (0, 0) ->
    let pending_i, pn = plan.Image.owed in
    compile_cmp_br ~fname ~label ~x ~k ~site:b.Image.pb_site ~t ~nt ~nt_falls
      ~unknowns ~chg:(pending_i + 1) ~pn cond
  | _ -> (
    let codes = ref [] in
    Array.iteri
      (fun k i ->
        let pi, pn = plan.Image.flushes.(k) in
        if pi > 0 then codes := flush_code pi pn :: !codes;
        if Image.batching i <> Image.Bnop then
          codes := compile_insn cfuncs globals i :: !codes)
      b.Image.pb_insns;
    let pending_i, pending_n = plan.Image.owed in
    let term = compile_term cfuncs globals unknowns ~pending_i ~pending_n b in
    match List.rev !codes with
    | [] ->
      fun st regs ->
        note_block st fname label;
        term st regs
    | codes ->
      let body = seq codes in
      fun st regs ->
        note_block st fname label;
        body st regs;
        term st regs)

let compile (img : Image.t) : t =
  let cfuncs =
    Array.map
      (fun (f : Image.pfunc) ->
        {
          c_name = f.Image.pf_name;
          c_params = f.Image.pf_params;
          c_nregs = f.Image.pf_nregs;
          c_blocks = [||];
        })
      img.Image.funcs
  in
  (* two passes so call closures can capture callee records up front *)
  Array.iteri
    (fun fid (f : Image.pfunc) ->
      cfuncs.(fid).c_blocks <-
        Array.map (compile_block cfuncs img.Image.globals f) f.Image.pf_blocks)
    img.Image.funcs;
  { c_image = img; c_funcs = cfuncs }

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)
(* ------------------------------------------------------------------ *)

let exec ?(config = default_config) ?profile ?(sink = Predictor.Sink_none)
    ?on_block (ct : t) ~input =
  let img = ct.c_image in
  Image.with_output (fun out ->
  Image.with_memory img (fun memory ->
    let st =
      {
        memory;
        counters = Counters.make ();
        out;
        input;
        input_pos = 0;
        cc_a = 0;
        cc_b = 0;
        fuel_left = config.fuel;
        depth = 0;
        frames = Array.make 16 [||];
        ret = 0;
        fuel = config.fuel;
        max_depth = config.max_depth;
        profile;
        sink;
        on_block;
        cancel = config.cancel;
      }
    in
    let exit_code =
      try
        if img.Image.main_id < 0 then trap "call to unknown function main";
        let mf = ct.c_funcs.(img.Image.main_id) in
        if st.depth >= st.max_depth then
          trap "call depth exceeded in %s" mf.c_name;
        if Array.length mf.c_params > 0 then
          trap "too few arguments to %s" mf.c_name;
        run_blocks st mf.c_blocks (frame st 0 (max mf.c_nregs 1))
      with Program_exit code -> code
    in
    { counters = st.counters; output = Buffer.contents st.out; exit_code }))
