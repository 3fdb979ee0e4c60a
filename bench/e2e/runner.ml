(* One run of one workload: set up several times, measure rounds of
   samples, check every sample, and turn the samples, spans and
   per-build facts into metric rows. *)

type stop =
  | Rounds of int    (* exactly this many rounds (tests) *)
  | Seconds of int   (* whole rounds while the next one fits the budget *)

(* Set-up repeats; [setup_s] is their median. *)
let setup_reps = 9

type sample = {
  pos : int;  (* the item's position in the round: the same input every round *)
  traced : bool;
  group : string;
  ns : int;  (* wall time; for a traced sample, its root span's *)
  base : int option;
      (* a traced sample's own untraced baseline, when the workload
         measures one (serve-replay's in-process replay) *)
  mutable ok : bool;
  mutable detail : string;
}

type result = {
  attempted : int;
  failed : int;
  failures : string list;  (* details of the first failed samples *)
  rows : Ledger.row list;
  digest : string option;
}

(* The stages of the traced pipeline, in pipeline order. *)
let stages =
  [ "parse_sema"; "lower"; "promote"; "frontend_hit"; "instrument";
    "verify_pre"; "optimize"; "verify_post"; "resolve"; "jit_compile";
    "execute" ]

let setup (w : Workload.t) ~seed ~sizes ~serve_exe =
  (* only the last instance is kept; earlier ones close at once, so at
     most one daemon is ever alive *)
  let rec go k times =
    let t0 = Span.now_ns () in
    let inst = w.Workload.setup ~seed sizes ~serve_exe in
    let times = (Span.now_ns () - t0) :: times in
    if k = 1 then (inst, times)
    else begin
      inst.Workload.close ();
      go (k - 1) times
    end
  in
  go setup_reps []

(* Untraced, every round runs [plain].  Traced, rounds alternate: even
   rounds run [plain], odd rounds [traced], so the two never warm each
   other's caches and the untraced rounds give the baseline for
   [trace.overhead_pct]. *)
let measure (inst : Workload.instance) ~stop ~trace =
  let samples = ref [] and next_id = ref 0 in
  let t_start = Span.now_ns () in
  let more r =
    match stop with
    | Rounds n -> r < n
    | Seconds s ->
      let elapsed = Span.now_ns () - t_start in
      r < (if trace then 2 else 1)
      || elapsed + (elapsed / r) <= s * 1_000_000_000
  in
  let run_item traced_round pos (it : Workload.item) =
    if it.Workload.clear_cache then Pipeline.clear_compile_cache ();
    let group = it.Workload.group in
    if not traced_round then begin
      let t0 = Span.now_ns () in
      let ok, detail =
        try it.Workload.plain () with e -> (false, Printexc.to_string e)
      in
      { pos; traced = false; group; ns = Span.now_ns () - t0; base = None; ok;
        detail }
    end
    else begin
      let id = !next_id in
      incr next_id;
      Span.sample_ns := 0;
      let t =
        try it.Workload.traced ~sample:id
        with e ->
          { Workload.ok = false; detail = Printexc.to_string e; base_ns = None }
      in
      { pos; traced = true; group; ns = !Span.sample_ns;
        base = t.Workload.base_ns; ok = t.Workload.ok;
        detail = t.Workload.detail }
    end
  in
  let r = ref 0 in
  while more !r do
    let traced_round = trace && !r mod 2 = 1 in
    let round = Array.mapi (run_item traced_round) (inst.Workload.items !r) in
    List.iter
      (fun (pos, d) ->
         let s = round.(pos) in
         if s.ok then begin
           s.ok <- false;
           s.detail <- d
         end)
      (inst.Workload.verify_round ());
    samples := List.rev_append (Array.to_list round) !samples;
    incr r
  done;
  List.rev !samples

(* --- rows -------------------------------------------------------------------- *)

(* Each item's best untraced time over the rounds, with its group.
   Interference from other tenants only ever slows a sample down, so the
   best of several rounds is the steadiest estimate of the code's own
   speed. *)
let best_of_rounds ?(time = fun s -> s.ns) (samples : sample list) :
  (string * int) list =
  let best = Hashtbl.create 1024 in
  List.iter
    (fun s ->
       match Hashtbl.find_opt best s.pos with
       | Some (_, ns) when ns <= time s -> ()
       | _ -> Hashtbl.replace best s.pos (s.group, time s))
    samples;
  Hashtbl.fold (fun pos v acc -> (pos, v) :: acc) best []
  |> List.sort compare
  |> List.map snd

let end_to_end_rows ~setup_ns ~rss_kb (best : (string * int) list) =
  let ns = List.map snd best in
  let n = List.length best in
  [ Ledger.row ~n:(List.length setup_ns) "setup_s" "s"
      (Ledger.median (List.map (fun t -> float_of_int t /. 1e9) setup_ns));
    Ledger.row ~n "sample_ms_p50" "ms" (Ledger.percentile_ms ~q:50. ns);
    Ledger.row ~n "sample_ms_p99" "ms" (Ledger.percentile_ms ~q:99. ns);
    Ledger.row ~n "samples_per_s" "1/s"
      (Ledger.ratio n (Ledger.sum ns) *. 1e9);
    Ledger.row "peak_rss_mb" "MB" (float_of_int rss_kb /. 1024.) ]

(* Self time per span name over the traced samples, the samples' total
   wall time and their count. *)
let stage_table () =
  let tbl = Hashtbl.create 16 and total = ref 0 and n = ref 0 in
  List.iter
    (fun ((s : Span.t), self) ->
       if s.Span.sample >= 0 then begin
         Hashtbl.replace tbl s.Span.name
           (self + Option.value ~default:0 (Hashtbl.find_opt tbl s.Span.name));
         if s.Span.parent < 0 then begin
           total := !total + Span.duration s;
           incr n
         end
       end)
    (Span.self_times (Span.all ()));
  (tbl, !total, !n)

(* [overhead_pct]: the traced samples' time over the untraced one. *)
let per_layer_rows ~overhead_pct =
  let tbl, total, n = stage_table () in
  let self name = Option.value ~default:0 (Hashtbl.find_opt tbl name) in
  let others =
    Hashtbl.fold
      (fun name _ acc ->
         if List.mem name stages || String.equal name "sample" then acc
         else name :: acc)
      tbl []
    |> List.sort compare
  in
  let stage_rows =
    List.concat_map
      (fun name ->
         [ Ledger.row ~n (Printf.sprintf "stage.%s.self_ms" name) "ms"
             (Ledger.ratio (self name) n /. 1e6);
           Ledger.row ~n (Printf.sprintf "stage.%s.share" name) "ratio"
             (Ledger.ratio (self name) total) ])
      (stages @ others)
    @ [ Ledger.row ~n "stage.unattributed.share" "ratio"
          (Ledger.ratio (self "sample") total) ]
  in
  let splits = !Pipeline.splits in
  let ns = List.length splits in
  let total_of f = Ledger.sum (List.map f splits) in
  let mean_ms f = Ledger.ratio (total_of f) ns /. 1e6 in
  let g f =
    Ledger.geomean
      (List.map (fun (s : Pipeline.split) -> Ledger.ratio (f s) s.Pipeline.full_ns) splits)
  in
  let stub_over_full = g (fun s -> s.Pipeline.stub_ns)
  and none_over_full = g (fun s -> s.Pipeline.none_ns) in
  let asan = List.filter_map (fun (s : Pipeline.split) -> s.Pipeline.asan) splits in
  let overhead base full =
    Harness.Stats.geomean_overhead
      (List.map
         (fun s -> Harness.Stats.percent_overhead ~base:(base s) ~measured:(full s))
         splits)
  in
  let exec_rows =
    let r = Ledger.row ~n:ns in
    [ r "exec.none_ms" "ms" (mean_ms (fun s -> s.Pipeline.none_ns));
      r "exec.stub_ms" "ms" (mean_ms (fun s -> s.Pipeline.stub_ns));
      r "exec.full_ms" "ms" (mean_ms (fun s -> s.Pipeline.full_ns));
      r "exec.ns_per_cycle_none" "ns"
        (Ledger.ratio (total_of (fun s -> s.Pipeline.none_ns))
           (total_of (fun s -> s.Pipeline.none_cycles)));
      r "exec.ns_per_cycle_cecsan" "ns"
        (Ledger.ratio (total_of (fun s -> s.Pipeline.full_ns))
           (total_of (fun s -> s.Pipeline.full_cycles)));
      r "exec.check_body_share" "ratio"
        (if ns = 0 then 0. else 1. -. stub_over_full);
      r "exec.check_call_share" "ratio" (stub_over_full -. none_over_full);
      Ledger.row ~n:(List.length asan) "exec.asan_check_body_share" "ratio"
        (if asan = [] then 0.
         else
           1. -. Ledger.geomean
             (List.map (fun (full, stub) -> Ledger.ratio stub full) asan));
      r "cost.cycle_overhead_pct" "%"
        (overhead (fun s -> s.Pipeline.none_cycles) (fun s -> s.Pipeline.full_cycles));
      r "cost.memory_overhead_pct" "%"
        (overhead (fun s -> s.Pipeline.none_resident)
           (fun s -> s.Pipeline.full_resident)) ]
  in
  let f = !Pipeline.facts in
  let per_build name unit_ v = Ledger.row ~n:f.Pipeline.builds name unit_
      (Ledger.ratio v f.Pipeline.builds) in
  let fact_rows =
    [ per_build "checks.static" "count" f.Pipeline.static_checks;
      per_build "checks.elided" "count" f.Pipeline.elided;
      per_build "checks.downgraded" "count" f.Pipeline.downgraded;
      per_build "checks.executed" "count" f.Pipeline.executed;
      per_build "ir.size_promoted" "instrs" f.Pipeline.size_promoted;
      per_build "ir.size_instrumented" "instrs" f.Pipeline.size_instrumented;
      per_build "ir.size_optimized" "instrs" f.Pipeline.size_optimized;
      per_build "cache.frontend_hits_per_build" "count" f.Pipeline.frontend_hits;
      per_build "cache.resolutions_per_build" "count" f.Pipeline.resolutions;
      per_build "cache.jit_compiles_per_build" "count" f.Pipeline.jit_compiles ]
  in
  stage_rows @ exec_rows @ fact_rows
  @ [ Ledger.row ~n "trace.overhead_pct" "%" overhead_pct ]

let run (w : Workload.t) ~seed ~sizes ~serve_exe ~stop ~trace : result =
  Span.reset ();
  Pipeline.facts := Pipeline.no_facts ();
  Pipeline.splits := [];
  Pipeline.clear_compile_cache ();
  let inst, setup_ns = setup w ~seed ~sizes ~serve_exe in
  Fun.protect ~finally:inst.Workload.close (fun () ->
      let samples = measure inst ~stop ~trace in
      let failed = List.filter (fun s -> not s.ok) samples in
      let attempted = List.length samples in
      let plain, traced = List.partition (fun s -> not s.traced) samples in
      let best = best_of_rounds plain in
      let layer_rows =
        if trace then
          (* each input's best traced time over its best untraced one *)
          let total xs = Ledger.sum (List.map snd xs) in
          let base =
            if List.for_all (fun s -> s.base <> None) traced then
              best_of_rounds ~time:(fun s -> Option.get s.base) traced
            else best
          in
          per_layer_rows
            ~overhead_pct:
              ((Ledger.ratio (total (best_of_rounds traced)) (total base) -. 1.)
               *. 100.)
        else []
      in
      let workload_rows = inst.Workload.rows best in
      let main =
        if trace then layer_rows
        else end_to_end_rows ~setup_ns ~rss_kb:(inst.Workload.rss_kb ()) best
      in
      { attempted;
        failed = List.length failed;
        failures =
          List.filteri (fun i _ -> i < 10) (List.map (fun s -> s.detail) failed);
        rows =
          main
          @ [ Ledger.row ~n:attempted "failed_frac" "ratio"
                (Ledger.ratio (List.length failed) attempted) ]
          @ workload_rows;
        digest = inst.Workload.digest () })

(* The rows BENCHMARK.json names, in its order; a name the run did not
   compute is an error, never a silent 0. *)
let select (metrics : Jsonr.metric list) (rows : Ledger.row list) =
  List.map
    (fun (m : Jsonr.metric) ->
       match
         List.find_opt
           (fun (r : Ledger.row) -> String.equal r.Ledger.name m.Jsonr.m_name)
           rows
       with
       | Some r -> r
       | None -> failwith ("metric not computed by this run: " ^ m.Jsonr.m_name))
    metrics
