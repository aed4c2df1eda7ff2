type fault_report = {
  rf_request : int;
  rf_kind : string;
  rf_outcome : string;  (* "ok" | "failed:STATUS" | "vacuous" | "escape" *)
}

type outcome = {
  ro_requests : int;
  ro_ok : int;
  ro_failed : int;
  ro_checked : int;
  ro_mismatches : int;
  ro_events : Server.reopt_event list;
  ro_stats : Server.stats;
  ro_chaos_planned : int;
  ro_chaos_ok : int;
  ro_chaos_failed : int;
  ro_chaos_vacuous : int;
  ro_chaos_escapes : int;
  ro_chaos_faults : fault_report list;
  ro_crash_restarts : int;
  ro_restored : int;
  ro_restore_exact : bool;
  ro_backend : Sim.Machine.backend;
}

(* ------------------------------------------------------------------ *)
(* The synthetic drift workload                                        *)
(* ------------------------------------------------------------------ *)

let drift_name = "drift"

(* a char-class dispatch chain over mutually exclusive equality tests
   (so every arm order is cc-compatible and Eq. 1-4 alone picks the
   layout): the hot arm is whatever class the input stream is made of —
   shifting the input mix shifts the optimal ordering *)
let drift_body =
  {|
int digits;
int uppers;
int lowers;
int others;

int main() {
  int c;
  digits = 0;
  uppers = 0;
  lowers = 0;
  others = 0;
  while ((c = getchar()) != EOF) {
    if (c == '5')
      digits++;
    else if (c == 'Z')
      uppers++;
    else if (c == 'l')
      lowers++;
    else
      others++;
  }
  print_num(digits);
  putchar(' ');
  print_num(uppers);
  putchar(' ');
  print_num(lowers);
  putchar(' ');
  print_num(others);
  putchar('\n');
  return 0;
}
|}

let drift_spec =
  Workloads.Spec.make ~name:drift_name
    ~description:"synthetic char-class dispatch whose input bias flips"
    ~source:drift_body
    ~training_input:(lazy "")
    ~test_input:(lazy "")

let drift_source = drift_spec.Workloads.Spec.source

let drift_input ~phase ~seed =
  let state = ref (((seed * 2654435761) lxor 0x5bf03635) land 0x3FFFFFFF) in
  let next () =
    state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
    !state
  in
  (* phase 1 is digit-heavy and longer, so the accumulated global
     profile overtakes phase 0's lowercase majority; the cold classes
     appear a little so every arm has nonzero counts *)
  let len, hot, alts =
    if phase = 0 then (600, 'l', [| '5'; 'Z'; 'x' |])
    else (2400, '5', [| 'l'; 'Z'; 'x' |])
  in
  String.init len (fun _ ->
      let n = next () in
      if n mod 10 < 9 then hot else alts.(n mod 3))

(* ------------------------------------------------------------------ *)
(* Request inputs                                                      *)
(* ------------------------------------------------------------------ *)

let input_slice ~seed text =
  let len = String.length text in
  if len = 0 then ""
  else begin
    let window = min len 2048 in
    let target = max 1 (window * (1 + (abs seed mod 4)) / 4) in
    let cut =
      match String.rindex_from_opt text (target - 1) '\n' with
      | Some i when i > 0 -> i + 1
      | _ -> target
    in
    String.sub text 0 cut
  end

(* ------------------------------------------------------------------ *)
(* The serve line protocol                                             *)
(* ------------------------------------------------------------------ *)

type command =
  | Blank
  | Quit
  | Sync
  | Stats
  | Run of { name : string; seed : int; deadline_ms : int option }
  | Invalid of string

let parse_command line =
  let words =
    String.split_on_char ' ' (String.trim line)
    |> List.filter (fun s -> not (String.equal s ""))
  in
  match words with
  | [] -> Blank
  | [ "quit" ] | [ "exit" ] -> Quit
  | [ "sync" ] -> Sync
  | [ "stats" ] -> Stats
  | "run" :: name :: rest ->
    let int_at i = Option.bind (List.nth_opt rest i) int_of_string_opt in
    Run
      {
        name;
        seed = Option.value (int_at 0) ~default:0;
        deadline_ms =
          Option.bind (int_at 1) (fun ms -> if ms > 0 then Some ms else None);
      }
  | _ -> Invalid (Printf.sprintf "err unknown command %S" line)

(* a servable program's source and input generator: a built-in
   workload's seeded slices of its test input (forced here, on the
   caller's domain), or the drift program's phased inputs *)
let program name =
  if String.equal name drift_name then Some (drift_source, drift_input)
  else
    match Workloads.Registry.find name with
    | w ->
      let text = Lazy.force w.Workloads.Spec.test_input in
      Some
        (w.Workloads.Spec.source, fun ~phase:_ ~seed -> input_slice ~seed text)
    | exception Not_found -> None

let request name ~seed =
  match program name with
  | Some (source, input) -> Ok (source, input ~phase:(abs seed land 1) ~seed)
  | None -> Error (Printf.sprintf "unknown workload %S" name)

let render id = function
  | Error msg -> Printf.sprintf "resp %d err %s" id msg
  | Ok (r : Server.response) when String.equal r.Server.rs_status "ok" ->
    Printf.sprintf
      "resp %d ok program=%s gen=%d cold=%b backend=%s exit=%d ms=%.3f \
       bytes=%d md5=%s"
      id r.Server.rs_program r.Server.rs_generation r.Server.rs_cold
      r.Server.rs_backend r.Server.rs_exit_code r.Server.rs_wall_ms
      (String.length r.Server.rs_output)
      (Digest.to_hex (Digest.string r.Server.rs_output))
  | Ok r ->
    Printf.sprintf "resp %d %s program=%s msg=%S" id r.Server.rs_status
      r.Server.rs_program r.Server.rs_message

(* ------------------------------------------------------------------ *)
(* The replay                                                          *)
(* ------------------------------------------------------------------ *)

type req = {
  q_name : string;
  q_source : string;
  q_input : string;
  q_base : Mir.Program.t;  (* the oracle's unreordered base *)
}

(* ------------------------------------------------------------------ *)
(* Chaos: environment fault application                                 *)
(* ------------------------------------------------------------------ *)

(* Damage an artifact by writing the damaged bytes to a sibling file
   and renaming it over the original — never in place: the original
   inode may be dlopen-mmapped by this very process (a loaded plugin),
   and truncating or rewriting a mapped file raises SIGBUS.  The
   rename leaves live mappings on the old inode and puts the damage
   where it belongs: on the store the next load reads. *)
let replace_with path bytes =
  let tmp = path ^ ".chaos" in
  match
    let oc = open_out_bin tmp in
    output_string oc bytes;
    close_out oc;
    Sys.rename tmp path
  with
  | () -> true
  | exception Sys_error _ -> false

let read_file path =
  match
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    let b = really_input_string ic n in
    close_in ic;
    b
  with
  | b -> Some b
  | exception Sys_error _ -> None

(* flip one byte mid-file, leaving the .sum sidecar stale: the next
   disk load must fail its checksum and quarantine the artifact *)
let corrupt_file path =
  match read_file path with
  | None | Some "" -> false
  | Some s ->
    let b = Bytes.of_string s in
    let mid = Bytes.length b / 2 in
    Bytes.set b mid (Char.chr (Char.code (Bytes.get b mid) lxor 0xFF));
    replace_with path (Bytes.to_string b)

let truncate_file path =
  match read_file path with
  | None | Some "" -> false
  | Some s -> replace_with path (String.sub s 0 (max 1 (String.length s / 2)))

(* damage the plugin the victim request's program is served from, and
   drop the in-process memo so that request must reload it from disk
   and trip over the damage.  [false] (vacuous) when that plugin is not
   in the store: other files there may belong to no served program *)
let apply_artifact_fault srv ~source kind =
  match Server.native_artifact srv ~source with
  | None -> false
  | Some victim ->
    let applied =
      match kind with
      | Inject.S_corrupt_artifact -> corrupt_file victim
      | _ -> truncate_file victim
    in
    if applied then Sim.Native.clear_memo ();
    applied

(* the counters of a server restarted after a crash, plus those of the
   server it replaced, so a durable replay reports its whole stream.
   Resident entries, restored programs and generations are the
   restarted server's own; the native counters are process-global and
   already span both *)
let add_stats (pre : Server.stats) (st : Server.stats) =
  let cache (p : Sim.Artifact.stats) (s : Sim.Artifact.stats) =
    {
      s with
      Sim.Artifact.a_hits = p.Sim.Artifact.a_hits + s.Sim.Artifact.a_hits;
      a_misses = p.Sim.Artifact.a_misses + s.Sim.Artifact.a_misses;
      a_builds = p.Sim.Artifact.a_builds + s.Sim.Artifact.a_builds;
      a_failures = p.Sim.Artifact.a_failures + s.Sim.Artifact.a_failures;
    }
  in
  {
    st with
    Server.st_requests = pre.Server.st_requests + st.Server.st_requests;
    st_cold = pre.Server.st_cold + st.Server.st_cold;
    st_shadow_runs = pre.Server.st_shadow_runs + st.Server.st_shadow_runs;
    st_merges = pre.Server.st_merges + st.Server.st_merges;
    st_reopts = pre.Server.st_reopts + st.Server.st_reopts;
    st_caches = List.map2 cache pre.Server.st_caches st.Server.st_caches;
  }

let run ?(config = Config.default) ?(workloads = []) ?(requests = 1000)
    ?concurrency ?(seed = 42) ?(drift = true) ?(chaos = 0) ?(chaos_seed = 7)
    ?state_dir ?(progress = fun _ -> ()) () =
  let names =
    (match workloads with [] -> Workloads.Registry.names | ns -> ns)
    @ if drift then [ drift_name ] else []
  in
  (* one slot per distinct program: its oracle base, compiled here and
     never looked up in the server's caches, and its input generator *)
  let mix =
    Array.of_list
      (List.map
         (fun name ->
           match program name with
           | Some (source, input) ->
             (name, source, Pipeline.compile_base config source, input)
           | None -> failwith ("replay: unknown workload " ^ name))
         names)
  in
  let n_mix = Array.length mix in
  let half = requests / 2 in
  let request ~phase ~seed k =
    let name, source, base, input = mix.(k) in
    { q_name = name; q_source = source; q_input = input ~phase ~seed;
      q_base = base }
  in
  let reqs =
    Array.init requests (fun i ->
        request ~phase:(if i < half then 0 else 1) ~seed:(seed + i)
          (i mod n_mix))
  in

  (* one long-lived server: warm every program up, then fire the two
     waves with a sync between.  With [state_dir] the server is
     durable, and a crash-restart cycle is certified between the
     waves. *)
  let make_server () =
    Server.create ~config ?domains:concurrency ?state_dir ()
  in
  let server = ref (make_server ()) in
  progress
    (Printf.sprintf "warmup (%d programs, %d domains)" n_mix
       (Server.domains !server));
  for k = 0 to n_mix - 1 do
    let q = request ~phase:0 ~seed k in
    ignore
      (Server.submit !server ~name:q.q_name ~source:q.q_source
         ~input:q.q_input)
  done;

  let faults =
    if chaos > 0 then
      Inject.server_plan ~seed:chaos_seed ~requests ~count:chaos
    else []
  in
  if faults <> [] then
    progress
      (Printf.sprintf "chaos: %d faults planned (%s)" (List.length faults)
         (String.concat ", "
            (List.map
               (fun (f : Inject.server_fault) ->
                 Printf.sprintf "%d:%s" f.Inject.sv_request
                   (Inject.server_kind_name f.Inject.sv_kind))
               faults)));
  (* environment faults that found nothing to damage (no artifact on
     disk, no state dir) — reported, never silently counted as ok *)
  let vacuous : (int, unit) Hashtbl.t = Hashtbl.create 8 in

  let responses : Server.response option array = Array.make requests None in
  let fire lo hi =
    let srv = !server in
    let inflight = Pool.Inflight.create () in
    for i = lo to hi - 1 do
      let q = reqs.(i) in
      let fault = Inject.server_find faults ~request:i in
      (* environment faults strike from the driver thread, just before
         the victim request is posted *)
      (match fault with
      | Some { Inject.sv_kind = (Inject.S_corrupt_artifact
                                | Inject.S_truncate_artifact) as k; _ } ->
        if not (apply_artifact_fault srv ~source:q.q_source k) then
          Hashtbl.replace vacuous i ()
      | Some { Inject.sv_kind = Inject.S_tear_record; _ } ->
        let torn =
          match Server.state_record srv ~source:q.q_source with
          | Some path -> truncate_file path
          | None -> false
        in
        if not torn then Hashtbl.replace vacuous i ()
      | _ -> ());
      let deadline_ms, inject =
        match fault with
        | Some { Inject.sv_kind = Inject.S_kill_worker; _ } ->
          (None, Some (fun () -> raise (Inject.Injected i)))
        | Some { Inject.sv_kind = Inject.S_stall; _ } ->
          (* the stall outlives the request deadline, so the watchdog
             fires and the request ends as a timeout: timeouts are
             final on every rung *)
          (Some 100, Some (fun () -> Unix.sleepf 0.25))
        | _ -> (None, None)
      in
      Server.post ?deadline_ms ?inject srv ~name:q.q_name ~source:q.q_source
        ~input:q.q_input
        (Pool.Inflight.track inflight (fun r -> responses.(i) <- Some r))
    done;
    Pool.Inflight.wait inflight
  in
  progress (Printf.sprintf "wave 1: requests 0..%d" (half - 1));
  fire 0 half;
  Server.sync !server;

  (* crash-restart-resume: kill the durable server without any final
     flush (power-loss semantics), restart on the same state dir, and
     certify the restore against the pre-crash learned state — [sync]
     rewrote an absolute record per program, so the match must be
     exact even if a tear fault struck a record earlier *)
  let crash_restarts = ref 0 and restored = ref 0 in
  let restore_exact = ref true in
  let pre_crash_events = ref [] in
  let pre_crash_stats = ref None in
  (match state_dir with
  | Some _ ->
    progress "crash (no final merge) and restart from the state dir";
    let pre_stats = Server.stats !server in
    let pre = List.sort compare pre_stats.Server.st_programs in
    pre_crash_events := Server.reopt_events !server;
    pre_crash_stats := Some pre_stats;
    Server.shutdown ~crash:true !server;
    (* a real restart is a fresh process: drop the in-memory plugin memo *)
    Sim.Native.clear_memo ();
    server := make_server ();
    incr crash_restarts;
    let st = Server.stats !server in
    restored := st.Server.st_restored;
    restore_exact := List.sort compare st.Server.st_programs = pre
  | None -> ());

  progress (Printf.sprintf "wave 2: requests %d..%d" half (requests - 1));
  fire half requests;
  Server.sync !server;

  (* differential check of every ok response against the reference
     interpreter on the unreordered base: a fault, chaos-planned or
     not, must never produce a wrong result *)
  progress "differential check against the reference interpreter";
  let sim_config = Pipeline.sim_config config in
  let ok = ref 0 and checked = ref 0 and mismatches = ref 0 in
  let mis = Array.make requests false in
  Array.iteri
    (fun i -> function
      | Some (r : Server.response) when r.Server.rs_status = "ok" ->
        incr ok;
        let q = reqs.(i) in
        let o =
          Sim.Machine.run_reference ~config:sim_config q.q_base
            ~input:q.q_input
        in
        incr checked;
        if
          (not (String.equal o.Sim.Machine.output r.Server.rs_output))
          || o.Sim.Machine.exit_code <> r.Server.rs_exit_code
        then begin
          mis.(i) <- true;
          incr mismatches
        end
      | _ -> ())
    responses;

  (* chaos verdicts *)
  let fault_reports =
    List.map
      (fun (f : Inject.server_fault) ->
        let i = f.Inject.sv_request in
        let verdict =
          if Hashtbl.mem vacuous i then "vacuous"
          else
            match responses.(i) with
            | None -> "escape"  (* response lost: the fault leaked *)
            | Some r ->
              if r.Server.rs_status = "ok" then
                if mis.(i) then "escape" (* wrong result: worst case *)
                else "ok"
              else "failed:" ^ r.Server.rs_status
        in
        {
          rf_request = i;
          rf_kind = Inject.server_kind_name f.Inject.sv_kind;
          rf_outcome = verdict;
        })
      faults
  in
  let tally p = List.length (List.filter p fault_reports) in
  let chaos_ok = tally (fun r -> r.rf_outcome = "ok") in
  let chaos_vacuous = tally (fun r -> r.rf_outcome = "vacuous") in
  let chaos_escapes = tally (fun r -> r.rf_outcome = "escape") in
  let chaos_failed =
    tally (fun r -> String.length r.rf_outcome > 7
                    && String.sub r.rf_outcome 0 7 = "failed:")
  in

  (* events and counters span the crash: pre-crash history survives in
     the outcome even though the restarted server counts from zero *)
  let stats =
    let st = Server.stats !server in
    match !pre_crash_stats with None -> st | Some pre -> add_stats pre st
  in
  let events = !pre_crash_events @ Server.reopt_events !server in
  Server.shutdown !server;
  {
    ro_requests = requests;
    ro_ok = !ok;
    ro_failed = requests - !ok;
    ro_checked = !checked;
    ro_mismatches = !mismatches;
    ro_events = events;
    ro_stats = stats;
    ro_chaos_planned = List.length faults;
    ro_chaos_ok = chaos_ok;
    ro_chaos_failed = chaos_failed;
    ro_chaos_vacuous = chaos_vacuous;
    ro_chaos_escapes = chaos_escapes;
    ro_chaos_faults = fault_reports;
    ro_crash_restarts = !crash_restarts;
    ro_restored = !restored;
    ro_restore_exact = !restore_exact;
    ro_backend = config.Config.backend;
  }

(* ------------------------------------------------------------------ *)
(* The report                                                          *)
(* ------------------------------------------------------------------ *)

let report o =
  let b = Buffer.create 1024 in
  let line fmt = Printf.bprintf b (fmt ^^ "\n") in
  let st = o.ro_stats in
  line "requests:    %d ok, %d failed (%d domains)" o.ro_ok o.ro_failed
    st.Server.st_domains;
  List.iter
    (fun (s : Sim.Artifact.stats) ->
      let total = s.Sim.Artifact.a_hits + s.Sim.Artifact.a_misses in
      line "cache %-9s %d hit(s) / %d request(s) (%.1f%%), %d build(s)"
        (s.Sim.Artifact.a_name ^ ":")
        s.Sim.Artifact.a_hits total
        (if total = 0 then 0.
         else 100. *. float_of_int s.Sim.Artifact.a_hits /. float_of_int total)
        s.Sim.Artifact.a_builds)
    st.Server.st_caches;
  (* the native counters are process-global: shown only when this
     replay's server could be the one that moved them *)
  if o.ro_backend = `Native then begin
    let ns = st.Server.st_native in
    line "native:      %d compile(s), %d disk hit(s), %d quarantined"
      ns.Sim.Native.compiles ns.Sim.Native.disk_hits ns.Sim.Native.quarantined
  end;
  line "profiles:    %d shadow run(s), %d merge(s)" st.Server.st_shadow_runs
    st.Server.st_merges;
  line "re-opts:     %d" st.Server.st_reopts;
  List.iter
    (fun (e : Server.reopt_event) ->
      line "  %s: generation %d at %d profiled execution(s)" e.Server.re_program
        e.Server.re_generation e.Server.re_executions)
    o.ro_events;
  line "checked:     %d against the reference oracle, %d mismatch(es)"
    o.ro_checked o.ro_mismatches;
  if o.ro_chaos_planned > 0 then begin
    line
      "chaos:       %d fault(s): %d ok, %d failed cleanly, %d vacuous, %d \
       escape(s)"
      o.ro_chaos_planned o.ro_chaos_ok o.ro_chaos_failed o.ro_chaos_vacuous
      o.ro_chaos_escapes;
    List.iter
      (fun f -> line "  request %d: %s -> %s" f.rf_request f.rf_kind f.rf_outcome)
      o.ro_chaos_faults
  end;
  if o.ro_crash_restarts > 0 then
    line "durability:  %d crash-restart(s), %d program(s) restored, restore %s"
      o.ro_crash_restarts o.ro_restored
      (if o.ro_restore_exact then "exact" else "NOT exact");
  Buffer.contents b
