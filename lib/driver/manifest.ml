(* Machine-readable failure manifests.

   One JSON object per line, flushed as soon as the entry is known, so a
   run killed mid-corpus leaves a readable prefix behind — that is what
   `bromc fuzz --resume` and the CI resume job consume.  The format is a
   flat object of scalars, written and read through {!Json}. *)

type entry = {
  e_id : int;            (* job index / fuzz case number *)
  e_label : string;
  e_status : string;     (* Pool.outcome_status or "ok"/"failed"/... *)
  e_message : string;
  e_attempts : int;
  e_retried : int;
  e_backend : string;    (* backend that served the job; "" when n/a *)
  e_degraded : bool;
  e_injected : string;   (* Inject.kind_name of a planted fault; "" *)
  e_wall_ms : float;
}

let entry ?(label = "") ?(message = "") ?(attempts = 1) ?(retried = 0)
    ?(backend = "") ?(degraded = false) ?(injected = "") ?(wall_ms = 0.0)
    ~id ~status () =
  {
    e_id = id;
    e_label = label;
    e_status = status;
    e_message = message;
    e_attempts = attempts;
    e_retried = retried;
    e_backend = backend;
    e_degraded = degraded;
    e_injected = injected;
    e_wall_ms = wall_ms;
  }

let ok e = String.equal e.e_status "ok"

(* ------------------------------------------------------------------ *)
(* Writing                                                             *)
(* ------------------------------------------------------------------ *)

let to_line e =
  Json.to_string
    (Json.Obj
       [
         ("id", Json.Int e.e_id);
         ("label", Json.Str e.e_label);
         ("status", Json.Str e.e_status);
         ("message", Json.Str e.e_message);
         ("attempts", Json.Int e.e_attempts);
         ("retried", Json.Int e.e_retried);
         ("backend", Json.Str e.e_backend);
         ("degraded", Json.Bool e.e_degraded);
         ("injected", Json.Str e.e_injected);
         (* microsecond resolution is all a wall clock here can claim *)
         ("wall_ms", Json.Float (Float.round (e.e_wall_ms *. 1000.) /. 1000.));
       ])

type writer = out_channel

let create path : writer = open_out path

let add (w : writer) e =
  output_string w (to_line e);
  output_char w '\n';
  flush w

let close (w : writer) = close_out w

let write path entries =
  let w = create path in
  Fun.protect ~finally:(fun () -> close w) (fun () -> List.iter (add w) entries)

(* ------------------------------------------------------------------ *)
(* Reading                                                             *)
(* ------------------------------------------------------------------ *)

exception Parse_error = Json.Parse_error

let entry_of_line line =
  let j =
    match Json.parse line with
    | Json.Obj _ as j -> j
    | _ -> raise (Parse_error ("not a JSON object: " ^ line))
  in
  let field k get default =
    Option.value ~default (Option.bind (Json.member k j) get)
  in
  let str k = field k Json.str "" and int k = field k Json.int 0 in
  {
    e_id = int "id";
    e_label = str "label";
    e_status = str "status";
    e_message = str "message";
    e_attempts = max 1 (int "attempts");
    e_retried = int "retried";
    e_backend = str "backend";
    e_degraded = field "degraded" Json.bool false;
    e_injected = str "injected";
    e_wall_ms = field "wall_ms" Json.num 0.0;
  }

(* a manifest is appended line by line and flushed per entry, so the
   one malformed shape a crash can leave behind is a torn final line
   (partial write, no trailing newline, or cut mid-string).  [read]
   tolerates exactly that: a parse failure on the last line drops the
   line instead of failing the whole load.  A malformed line with valid
   lines after it is real corruption and still raises. *)
let read path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let lines = ref [] in
      (try
         while true do
           let line = String.trim (input_line ic) in
           if line <> "" then lines := line :: !lines
         done
       with End_of_file -> ());
      let rec parse acc = function
        | [] -> List.rev acc
        | [ last ] -> (
          match entry_of_line last with
          | e -> List.rev (e :: acc)
          | exception Parse_error _ -> List.rev acc)
        | line :: rest -> parse (entry_of_line line :: acc) rest
      in
      parse [] (List.rev !lines))
