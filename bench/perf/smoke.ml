(* Smoke test of the benchmark, run by [dune runtest]:

     smoke.exe PERF_EXE BENCHMARK_JSON

   Every workload on two programs with one-second phases, untraced (all
   but batch-suite with --check-determinism); one batch and one serve
   workload traced.
   Each run must exit 0 and print every metric BENCHMARK.json declares
   for its mode, as a "name value unit" line and in its final JSON line
   with the same unit; the trace file must parse. *)

module J = Bench_db.Json

let failures = ref 0

let check cond fmt =
  Printf.ksprintf
    (fun s ->
      if not cond then begin
        incr failures;
        Printf.printf "FAIL %s\n%!" s
      end)
    fmt

let read_lines ic =
  let rec go acc =
    match input_line ic with l -> go (l :: acc) | exception End_of_file -> List.rev acc
  in
  go []

let declared bench key =
  match Option.bind (J.member key bench) J.arr with
  | None -> failwith ("BENCHMARK.json: no " ^ key)
  | Some ms ->
    List.map
      (fun m ->
        match (Option.bind (J.member "name" m) J.str, Option.bind (J.member "unit" m) J.str) with
        | Some n, Some u -> (n, u)
        | _ -> failwith ("BENCHMARK.json: malformed " ^ key))
      ms

let args perf ~workload ~trace ~extra =
  [ perf; "--workload"; workload; "--seed"; "3"; "--seconds"; "1"; "--trace";
    (if trace then "1" else "0"); "--programs"; "wc,grep" ]
  @ extra

let start perf ~workload ~trace ~extra =
  Unix.open_process_args_in perf (Array.of_list (args perf ~workload ~trace ~extra))

let finish ic ~label expected =
  let lines = read_lines ic in
  let status = Unix.close_process_in ic in
  check (status = Unix.WEXITED 0) "%s: non-zero exit" label;
  match List.rev lines with
  | [] -> check false "%s: no output" label
  | last :: _ ->
    let result = try Some (J.parse last) with J.Parse_error _ -> None in
    check (result <> None) "%s: last line is not JSON" label;
    Option.iter
      (fun r ->
        check (Option.bind (J.member "correct" r) J.bool = Some true) "%s: not correct" label;
        check (Option.bind (J.member "attempted" r) J.int <> None) "%s: no attempted" label;
        check (Option.bind (J.member "failed" r) J.int = Some 0) "%s: failures" label;
        let metrics = Option.value ~default:J.Null (J.member "metrics" r) in
        check
          (List.length (Option.value ~default:[] (J.obj metrics)) = List.length expected)
          "%s: wrong number of metrics" label;
        List.iter
          (fun (name, unit) ->
            let m = J.member name metrics in
            check
              (Option.bind m (J.member "unit") = Some (J.Str unit)
              && Option.bind (Option.bind m (J.member "value")) J.num <> None)
              "%s: metric %s missing from the JSON line" label name;
            check
              (List.exists
                 (fun l ->
                   match String.split_on_char ' ' l with
                   | [ n; v; u ] -> n = name && u = unit && float_of_string_opt v <> None
                   | _ -> false)
                 lines)
              "%s: no \"%s value %s\" line" label name unit)
          expected)
      result

let check_trace workload path =
  (match J.parse_file path with
  | t ->
    check
      (match Option.bind (J.member "traceEvents" t) J.arr with
      | Some (_ :: _) -> true
      | _ -> false)
      "%s: trace has no events" workload
  | exception (J.Parse_error _ | Sys_error _) ->
    check false "%s: trace does not parse" workload);
  try Sys.remove path with Sys_error _ -> ()

let () =
  let perf = Filename.concat (Sys.getcwd ()) Sys.argv.(1) in
  let bench = J.parse_file Sys.argv.(2) in
  let e2e = declared bench "end_to_end" and layers = declared bench "per_layer" in
  let trace_out w = Filename.concat (Sys.getcwd ()) (w ^ ".trace.json") in
  let runs =
    List.filter_map
      (fun w ->
        if w = "serve-drift" && not (Sim.Native.available ()) then None
        else
          (* determinism is checked where a second pass is cheap *)
          let extra = if w = "batch-suite" then [] else [ "--check-determinism" ] in
          Some (w, false, extra, e2e))
      [ "batch-suite"; "compile-matrix"; "serve-steady"; "serve-drift" ]
    @ List.map
        (fun w -> (w, true, [ "--trace-out"; trace_out w ], layers))
        [ "compile-matrix"; "serve-steady" ]
  in
  (* two runs at a time: one per core *)
  let rec go = function
    | [] -> ()
    | batch ->
      let now = List.filteri (fun i _ -> i < 2) batch in
      let rest = List.filteri (fun i _ -> i >= 2) batch in
      let started =
        List.map
          (fun (w, trace, extra, expected) ->
            (w, trace, expected, start perf ~workload:w ~trace ~extra))
          now
      in
      List.iter
        (fun (w, trace, expected, ic) ->
          let label = Printf.sprintf "%s --trace %d" w (if trace then 1 else 0) in
          finish ic ~label expected;
          if trace then check_trace w (trace_out w))
        started;
      go rest
  in
  let t0 = Unix.gettimeofday () in
  go runs;
  Printf.printf "smoke: %d runs in %.1f s, %d failure(s)\n" (List.length runs)
    (Unix.gettimeofday () -. t0) !failures;
  if !failures > 0 then exit 1
