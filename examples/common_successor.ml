(* Reordering branches with a common successor (paper Section 10,
   Figure 14) — the extension the paper sketches as future work.

   The condition "a == 0 && b == 2 || d == 4 && b == 1" lowers to two
   chains of branches (one per conjunction group), each falling into a
   common successor.  Within a group, reordering tests the most
   selective condition first; across groups, Figure 14(d)-(e)'s
   super-branch view can swap the two conjunctions wholesale.
   Combination counters (2^n, as the paper prescribes) capture the
   correlations that per-branch probabilities would miss.

   Run with:  dune exec examples/common_successor.exe *)

let source =
  {|
int hits;
int misses;

int main() {
  int a;
  int b;
  int d;
  int c;
  a = 0;
  b = 0;
  d = 0;
  while ((c = getchar()) != EOF) {
    /* derive three weakly-correlated conditions from the input */
    a = c % 3;
    b = c % 5;
    d = c % 7;
    if (a == 0 && b == 2 || d == 4 && b == 1)
      hits++;
    else
      misses++;
  }
  print_int(hits);
  putchar(' ');
  print_int(misses);
  putchar('\n');
  return 0;
}
|}

let () =
  let training_input = Workloads.Textgen.prose ~seed:7 ~chars:20_000 in
  let test_input = Workloads.Textgen.prose ~seed:8 ~chars:30_000 in
  let config = { Driver.Config.default with Driver.Config.common_succ = true } in
  let result =
    Driver.Pipeline.run ~config ~name:"common-succ" ~source ~training_input
      ~test_input ()
  in
  Printf.printf "common-successor runs detected: %d (%d super-branch pairs)\n"
    (List.length result.Driver.Pipeline.r_comb)
    (List.length result.Driver.Pipeline.r_pairs);
  List.iter
    (fun (run, outcome) ->
      Printf.printf "comb #%d in %s: [%s] -> %s else %s\n"
        run.Reorder.Common_succ.cs_id run.Reorder.Common_succ.cs_func
        (String.concat "; " run.Reorder.Common_succ.labels)
        run.Reorder.Common_succ.common_succ run.Reorder.Common_succ.final_fail;
      match outcome with
      | Reorder.Common_succ.Reordered order ->
        Printf.printf "  reordered: tests now run in original positions [%s]\n"
          (String.concat "; "
             (Array.to_list (Array.map string_of_int order)))
      | Reorder.Common_succ.Unchanged reason ->
        Printf.printf "  unchanged: %s\n" reason)
    result.Driver.Pipeline.r_comb;
  List.iter
    (fun (pr, outcome) ->
      Printf.printf "pair #%d (groups of %d and %d conditions): %s\n"
        pr.Reorder.Common_succ.pr_id
        (Array.length pr.Reorder.Common_succ.pr_first.Reorder.Common_succ.conds)
        (Array.length pr.Reorder.Common_succ.pr_second.Reorder.Common_succ.conds)
        (match outcome with
        | Reorder.Common_succ.Reordered _ -> "groups swapped (Figure 14(e))"
        | Reorder.Common_succ.Unchanged reason -> "kept: " ^ reason))
    result.Driver.Pipeline.r_pairs;
  let o = result.Driver.Pipeline.r_original.Driver.Pipeline.v_counters in
  let r = result.Driver.Pipeline.r_reordered.Driver.Pipeline.v_counters in
  Printf.printf "instructions: %d -> %d (%+.2f%%)\n" o.Sim.Counters.insns
    r.Sim.Counters.insns
    (Driver.Pipeline.pct o.Sim.Counters.insns r.Sim.Counters.insns);
  Printf.printf "branches:     %d -> %d (%+.2f%%)\n" o.Sim.Counters.cond_branches
    r.Sim.Counters.cond_branches
    (Driver.Pipeline.pct o.Sim.Counters.cond_branches
       r.Sim.Counters.cond_branches)
