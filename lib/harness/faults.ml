(* The graceful-degradation table: how each sanitizer behaves when the
   run itself misbehaves.

   Every cell runs one smoke workload under the Recover policy with one
   injected fault (see Vm.Fault) and answers two questions the halt-only
   evaluation cannot: does the program still complete with the right
   answer, and how much coverage was lost doing so (entry-0 fallbacks,
   overflow chains, findings recorded along the way). *)

type cell = {
  c_status : string;   (* "ok", "ok*" (bugs recorded), exit/crash/... *)
  c_reports : int;     (* findings recorded by the sink *)
  c_suppressed : int;
  c_fallbacks : int;   (* allocations served unprotected (entry 0) *)
  c_chained : int;     (* allocations served via overflow chains *)
}

type data = {
  f_workload : string;
  f_scenarios : string list;          (* "none", "oom:N", ... *)
  f_rows : (string * cell list) list; (* sanitizer -> one cell/scenario *)
}

(* The last two scenarios fault the HARNESS rather than the guest:
   crash:25 kills the task at its 26th allocation, fuel:1000 gives the
   whole compile/verify pipeline a 1000-step budget (the perlbench
   pipeline burns ~1333, so the budget trips during compile).  Both
   escape [Driver.run] as exceptions; the supervised grid below turns
   them into "quarantined:*" cells instead of dying. *)
let scenarios =
  [ "none"; "oom:40"; "table:8"; "tagflip:97"; "crash:25"; "fuel:1000" ]

let lineup () : (string * Sanitizer.Spec.t) list =
  [
    "CECSan", Cecsan.sanitizer ();
    "CECSan-chain", Cecsan.sanitizer ~config:Cecsan.Config.with_chain ();
    "ASan", Baselines.Asan.sanitizer ();
    "HWASan", Baselines.Hwasan.sanitizer ();
    "SoftBound", Baselines.Softbound_cets.sanitizer ();
  ]

let fault_of_scenario s =
  if String.equal s "none" then Vm.Fault.none ()
  else
    match Vm.Fault.parse s with
    | Ok spec -> Vm.Fault.of_specs [ spec ]
    | Error m -> invalid_arg ("fault_of_scenario: " ^ m)

let stat telemetry key =
  match List.assoc_opt key telemetry with Some v -> v | None -> 0

let run_cell ?backend (san : Sanitizer.Spec.t)
    (w : Workloads.Spec2006.t) scenario : cell =
  let policy = Vm.Report.Recover { max_reports = 16 } in
  match
    Sanitizer.Driver.run san ~budget:200_000_000 ~policy
      ~fault:(fault_of_scenario scenario) ?backend
      w.Workloads.Spec2006.w_source
  with
  | exception Sanitizer.Spec.Unsupported _ ->
    { c_status = "excluded"; c_reports = 0; c_suppressed = 0;
      c_fallbacks = 0; c_chained = 0 }
  | r ->
    let gauges = r.Sanitizer.Driver.snapshot.Telemetry.Snapshot.gauges in
    let fallbacks = stat gauges "exhausted_fallbacks" in
    let chained = stat gauges "chained" in
    let status =
      match r.Sanitizer.Driver.outcome with
      | Vm.Machine.Exit c when c = w.Workloads.Spec2006.w_expected -> "ok"
      | Vm.Machine.Exit c -> Printf.sprintf "exit:%d" c
      | Vm.Machine.Completed_with_bugs { code; _ }
        when code = w.Workloads.Spec2006.w_expected ->
        "ok*"  (* right answer, findings recorded along the way *)
      | Vm.Machine.Completed_with_bugs { code; _ } ->
        Printf.sprintf "exit*:%d" code
      | Vm.Machine.Bug _ -> "halted"
      | Vm.Machine.Fault t ->
        (match t.Vm.Report.t_kind with
         | Vm.Report.Null_deref -> "crash:null"
         | Vm.Report.Segfault -> "crash:segv"
         | Vm.Report.Out_of_cycles -> "crash:cycles"
         | _ -> "crash")
    in
    {
      c_status = status;
      c_reports = List.length r.Sanitizer.Driver.reports;
      c_suppressed = r.Sanitizer.Driver.suppressed;
      c_fallbacks = fallbacks;
      c_chained = chained;
    }

(* Every (sanitizer, scenario) cell is independent: flatten the grid,
   fan it out via the total map, regroup by row.  A cell whose task
   died (injected crash, fuel exhaustion) renders as "quarantined:CLASS"
   instead of killing the whole table. *)
let run ?pool ?(workload = Workloads.Spec2006.perlbench) ?backend () :
  data =
  let rows = lineup () in
  let grid =
    List.concat_map
      (fun (_, san) -> List.map (fun sc -> (san, sc)) scenarios)
      rows
  in
  let cells =
    Pool.maybe_map_results pool
      (fun (san, sc) -> run_cell ?backend san workload sc)
      grid
    |> List.map (function
        | Ok c -> c
        | Error e ->
          { c_status = "quarantined:" ^ fst (Supervise.classify e);
            c_reports = 0; c_suppressed = 0; c_fallbacks = 0;
            c_chained = 0 })
  in
  let per_row = List.length scenarios in
  let f_rows =
    List.mapi
      (fun i (name, _) ->
         ( name,
           List.filteri
             (fun j _ -> j >= i * per_row && j < (i + 1) * per_row)
             cells ))
      rows
  in
  {
    f_workload = workload.Workloads.Spec2006.w_name;
    f_scenarios = scenarios;
    f_rows;
  }

let cell_to_string c =
  let deg =
    if c.c_fallbacks > 0 then Printf.sprintf " f%d" c.c_fallbacks
    else if c.c_chained > 0 then Printf.sprintf " c%d" c.c_chained
    else ""
  in
  let reps =
    if c.c_reports > 0 || c.c_suppressed > 0 then
      Printf.sprintf " r%d+%d" c.c_reports c.c_suppressed
    else ""
  in
  c.c_status ^ reps ^ deg

let render fmt (d : data) =
  let width = 18 + (22 * List.length d.f_scenarios) in
  Fmt.pf fmt "FAULT TABLE: graceful degradation on %s (recover mode)@."
    d.f_workload;
  Fmt.pf fmt
    "(ok = expected exit; * = findings recorded; rN+M = N reports, M \
     suppressed; fN = entry-0 fallbacks; cN = chained)@.";
  Fmt.pf fmt "%s@." (String.make width '-');
  Fmt.pf fmt "%-18s" "Sanitizer";
  List.iter (fun s -> Fmt.pf fmt "%22s" s) d.f_scenarios;
  Fmt.pf fmt "@.%s@." (String.make width '-');
  List.iter
    (fun (name, cells) ->
       Fmt.pf fmt "%-18s" name;
       List.iter (fun c -> Fmt.pf fmt "%22s" (cell_to_string c)) cells;
       Fmt.pf fmt "@.")
    d.f_rows;
  Fmt.pf fmt "%s@." (String.make width '-')
