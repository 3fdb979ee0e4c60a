(* The four workloads.  Each takes the run seed and its sizes, sets up
   its inputs and references (timed by the runner as [setup_s]), and
   then hands out rounds of items: the same items in the same seeded
   order every round, so each input's best time over the rounds can be
   taken.  An item is one sample: [plain] runs it through the system's
   public entry point, [traced] through the span-recording pipeline of
   [Pipeline].  Sizes are constants here, not flags; tests pass
   [tiny]. *)

module Driver = Sanitizer.Driver
module Spec = Sanitizer.Spec
module P = Serve.Protocol

type sizes = {
  kernels : Workloads.Spec2006.t list;  (* spec-exec *)
  programs : int;                       (* minic-triage, per round *)
  cwes : Juliet.Case.cwe list;          (* juliet-grid *)
  requests : int;                       (* serve-replay, per round *)
}

let default = {
  kernels = Workloads.Spec2006.all @ Workloads.Spec2017.all;
  programs = 2000;
  cwes = List.map fst Juliet.Suite.targets;
  requests = 512;
}

let tiny = {
  kernels = [ Workloads.Spec2006.gcc; Workloads.Spec2017.xalancbmk_s ];
  programs = 8;
  cwes = [ Juliet.Case.C415 ];
  requests = 24;
}

type traced = {
  ok : bool;
  detail : string;
  base_ns : int option;
      (* the untraced time the traced sample is compared against, when
         it is not the plain sample's (serve-replay: the in-process
         replay, without the pipe) *)
}

type item = {
  group : string;        (* kernel/config, tool, op: per-group rows *)
  clear_cache : bool;    (* clear the compile cache before the sample *)
  plain : unit -> bool * string;
  traced : sample:int -> traced;
      (* opens the sample's root span itself, so work that is not part
         of the sample (the execution split, cache warming, the serve
         in-process baseline) stays outside it *)
}

type instance = {
  items : int -> item array;
      (* the items of round [r], in run order; the same every round *)
  verify_round : unit -> (int * string) list;
      (* round-level checks, after the round: failed positions *)
  rows : (string * int) list -> Ledger.row list;
      (* workload-specific rows, from each item's group and best
         untraced ns *)
  rss_kb : unit -> int;
  digest : unit -> string option;
      (* a digest of the run's outputs, where they are bytes *)
  close : unit -> unit;
}

type t = {
  name : string;
  setup : seed:int -> sizes -> serve_exe:string -> instance;
}

let sp = Printf.sprintf

let ok_traced = { ok = true; detail = ""; base_ns = None }

let outcome_string o = Format.asprintf "%a" Vm.Machine.pp_outcome o

(* A seeded permutation of [0, n). *)
let permutation ~seed n =
  let t = Fuzz.Tape.fresh ~seed in
  let a = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Fuzz.Tape.draw t (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

let self_rss () = Ledger.peak_rss_kb "self"

let no_round_checks () = []
let no_digest () = None

(* The execution split and cache warming run after a traced sample's
   root span has closed. *)
let after_sample ?split (jobs : Pipeline.job list) =
  List.iter Pipeline.warm jobs;
  match split with
  | Some (j, md) -> Pipeline.split j md
  | None -> ()

(* --- spec-exec ---------------------------------------------------------------- *)

(* The Table IV/V kernels, text to verdict under none and CECSan on the
   jit, with the compile cache cleared before every sample.  The seed
   orders the samples.  Reference: every kernel's exit code on the
   interpreter, uninstrumented, must be its pinned [w_expected]. *)
let spec_exec =
  let setup ~seed (sizes : sizes) ~serve_exe:_ =
    List.iter
      (fun (w : Workloads.Spec2006.t) ->
         let r =
           Driver.run Spec.none ~budget:Harness.Overhead.default_budget
             ~backend:Vm.Machine.Interp w.w_source
         in
         match r.Driver.outcome with
         | Vm.Machine.Exit c when c = w.w_expected -> ()
         | o ->
           failwith
             (sp "spec-exec reference: %s gave %s, expected exit %d" w.w_name
                (outcome_string o) w.w_expected))
      sizes.kernels;
    let configs = [ ("none", Spec.none); ("cecsan", Pipeline.cecsan) ] in
    let pairs =
      Array.of_list
        (List.concat_map
           (fun w -> List.map (fun c -> (w, c)) configs)
           sizes.kernels)
    in
    (* group -> (cycles, resident) of the last plain run *)
    let cost = Hashtbl.create 32 in
    let item ((w : Workloads.Spec2006.t), (cname, san)) =
      let group = w.w_name ^ "/" ^ cname in
      let j =
        Pipeline.job ~backend:Vm.Machine.Jit
          ~budget:Harness.Overhead.default_budget w.w_source
      in
      let check (r : Driver.run_result) =
        match r.Driver.outcome with
        | Vm.Machine.Exit c when c = w.w_expected -> (true, "")
        | o ->
          (false,
           sp "%s: %s, expected exit %d" group (outcome_string o) w.w_expected)
      in
      { group;
        clear_cache = true;
        plain =
          (fun () ->
             let r = Pipeline.run_plain san j in
             Hashtbl.replace cost group (r.Driver.cycles, r.Driver.resident);
             check r);
        traced =
          (fun ~sample ->
             let r, md =
               Span.sample_span sample "sample" (fun () ->
                   Pipeline.run_traced san j)
             in
             let ok, detail = check r in
             if ok && String.equal cname "cecsan" then
               after_sample ~split:(j, md) [];
             { ok_traced with ok; detail }) }
    in
    let rows best =
      let ms_of group =
        List.filter_map
          (fun (g, ns) ->
             if String.equal g group then Some (Ledger.ms_of_ns ns) else None)
          best
      in
      let kernel_ms cname =
        let ms =
          List.concat_map
            (fun (w : Workloads.Spec2006.t) -> ms_of (w.w_name ^ "/" ^ cname))
            sizes.kernels
        in
        Ledger.row ~n:(List.length ms) ("kernel_ms_" ^ cname) "ms"
          (Ledger.geomean ms)
      in
      let overheads pick =
        List.filter_map
          (fun (w : Workloads.Spec2006.t) ->
             match
               ( Hashtbl.find_opt cost (w.w_name ^ "/none"),
                 Hashtbl.find_opt cost (w.w_name ^ "/cecsan") )
             with
             | Some base, Some full ->
               Some
                 (Harness.Stats.percent_overhead ~base:(pick base)
                    ~measured:(pick full))
             | _ -> None)
          sizes.kernels
      in
      let cycles = overheads fst and memory = overheads snd in
      [ kernel_ms "cecsan"; kernel_ms "none";
        Ledger.row ~n:(List.length cycles) "cycle_overhead_pct" "%"
          (Harness.Stats.geomean_overhead cycles);
        Ledger.row ~n:(List.length memory) "memory_overhead_pct" "%"
          (Harness.Stats.geomean_overhead memory) ]
      @ List.concat_map
        (fun (w : Workloads.Spec2006.t) ->
           List.map
             (fun (cname, _) ->
                let ms = ms_of (w.w_name ^ "/" ^ cname) in
                Ledger.row ~n:(List.length ms)
                  (sp "kernel.%s.ms_%s" w.w_name cname)
                  "ms" (Ledger.median ms))
             configs)
        sizes.kernels
    in
    let items =
      Array.map (fun i -> item pairs.(i))
        (permutation ~seed (Array.length pairs))
    in
    { items = (fun _ -> items);
      verify_round = no_round_checks;
      rows;
      rss_kb = self_rss;
      digest = no_digest;
      close = ignore }
  in
  { name = "spec-exec"; setup }

(* --- minic-triage ------------------------------------------------------------- *)

(* Seeded Fuzz.Gen programs, every other one with an injected bug, run
   under CECSan on the jit.  All sources differ, so every compile
   misses the cache.  Reference for a clean program: its output and
   exit code uninstrumented on the interpreter. *)
let minic_triage =
  let setup ~seed (sizes : sizes) ~serve_exe:_ =
    let progs =
      Array.init sizes.programs (fun i ->
          Fuzz.Gen.generate ~inject:(i land 1 = 1)
            (Fuzz.Tape.fresh ~seed:(Fuzz.Tape.mix seed i)))
    in
    let expected =
      Array.map
        (fun (p : Fuzz.Gen.program) ->
           match p.Fuzz.Gen.plan with
           | Some plan -> `Report plan.Fuzz.Gen.cls
           | None ->
             let r =
               Driver.run Spec.none ~externs:Fuzz.Oracle.externs
                 ~backend:Vm.Machine.Interp p.Fuzz.Gen.src
             in
             `Same (r.Driver.outcome, r.Driver.output))
        progs
    in
    let item i =
      let p = progs.(i) in
      let j =
        Pipeline.job ~backend:Vm.Machine.Jit ~externs:Fuzz.Oracle.externs
          p.Fuzz.Gen.src
      in
      let check (r : Driver.run_result) =
        match expected.(i), r.Driver.outcome with
        | `Same (Vm.Machine.Exit a, output), Vm.Machine.Exit b
          when a = b && String.equal output r.Driver.output
               && r.Driver.reports = [] -> (true, "")
        | `Same (ref_outcome, _), o ->
          (false,
           sp "program %d: %s, reference %s" i (outcome_string o)
             (outcome_string ref_outcome))
        | `Report cls, Vm.Machine.Bug b
          when Fuzz.Oracle.kind_ok cls b.Vm.Report.r_kind -> (true, "")
        | `Report cls, o ->
          (false,
           sp "program %d: injected %s, got %s" i (Fuzz.Gen.class_name cls)
             (outcome_string o))
      in
      { group = (if p.Fuzz.Gen.plan = None then "clean" else "injected");
        clear_cache = true;
        plain = (fun () -> check (Pipeline.run_plain Pipeline.cecsan j));
        traced =
          (fun ~sample ->
             let r, md =
               Span.sample_span sample "sample" (fun () ->
                   Pipeline.run_traced Pipeline.cecsan j)
             in
             let ok, detail = check r in
             if ok && p.Fuzz.Gen.plan = None then
               after_sample ~split:(j, md) [];
             { ok_traced with ok; detail }) }
    in
    let items = Array.map item (permutation ~seed sizes.programs) in
    { items = (fun _ -> items);
      verify_round = no_round_checks;
      rows = (fun _ -> []);
      rss_kb = self_rss;
      digest = no_digest;
      close = ignore }
  in
  { name = "minic-triage"; setup }

(* --- juliet-grid --------------------------------------------------------------- *)

(* Table II per (tool, CWE): cases evaluated, detected, false positives
   on good versions.  The same numbers as the rates, subsets and false
   positives pinned in test/test_golden.ml, as counts. *)
let juliet_pins : (string * (Juliet.Case.cwe * (int * int * int)) list) list =
  let open Juliet.Case in
  [ ("CECSan",
     [ (C121, (306, 306, 0)); (C122, (236, 236, 0)); (C124, (90, 90, 0));
       (C126, (125, 125, 0)); (C127, (125, 125, 0)); (C415, (51, 51, 0));
       (C416, (25, 25, 0)); (C761, (27, 27, 0)) ]);
    ("PACMem",
     [ (C121, (277, 259, 0)); (C122, (212, 195, 0)); (C124, (79, 79, 0));
       (C126, (112, 98, 0)); (C127, (111, 111, 0)); (C415, (45, 45, 0));
       (C416, (25, 25, 0)); (C761, (27, 27, 0)) ]);
    ("CryptSan",
     [ (C121, (248, 232, 0)); (C122, (188, 173, 0)); (C124, (68, 68, 0));
       (C126, (96, 84, 0)); (C127, (97, 97, 0)); (C415, (39, 39, 0));
       (C416, (25, 25, 0)); (C761, (27, 27, 0)) ]);
    ("HWASan",
     [ (C121, (248, 197, 0)); (C122, (188, 141, 0)); (C124, (68, 56, 0));
       (C126, (96, 72, 0)); (C127, (97, 76, 0)); (C415, (39, 39, 0));
       (C416, (25, 15, 0)); (C761, (27, 0, 0)) ]);
    ("ASan",
     [ (C121, (306, 256, 0)); (C122, (236, 187, 0)); (C124, (90, 74, 0));
       (C126, (125, 95, 0)); (C127, (125, 107, 0)); (C415, (51, 51, 0));
       (C416, (25, 20, 0)); (C761, (27, 27, 0)) ]);
    ("SoftBound/CETS",
     [ (C121, (296, 286, 0)); (C122, (227, 217, 0)); (C124, (90, 90, 0));
       (C126, (118, 111, 0)); (C127, (125, 125, 0)); (C415, (51, 51, 0));
       (C416, (25, 25, 5)); (C761, (27, 27, 0)) ]) ]

let juliet_budget = 50_000_000  (* Juliet.Runner.run_one's cycle budget *)

let reported (o : Vm.Machine.outcome) =
  match o with
  | Vm.Machine.Bug _ | Vm.Machine.Completed_with_bugs _ -> true
  | Vm.Machine.Exit _ | Vm.Machine.Fault _ -> false

(* The Table II grid: every case's bad and good version under each of
   the six tools, on the interpreter, one [Juliet.Runner.run_one] per
   sample.  The compile cache is cleared once per pass, so each source
   compiles once and then hits the cache for the other five tools.
   Reference: every good version exits uninstrumented, and each pass's
   counts must equal [juliet_pins]. *)
let juliet_grid =
  let setup ~seed (sizes : sizes) ~serve_exe:_ =
    let cases = Array.of_list (List.concat_map Juliet.Suite.cases_for sizes.cwes) in
    Array.iter
      (fun (c : Juliet.Case.t) ->
         let r =
           Driver.run Spec.none ~lines:c.lines ~packets:c.packets
             ~budget:juliet_budget ~backend:Vm.Machine.Interp c.good_src
         in
         match r.Driver.outcome with
         | Vm.Machine.Exit _ -> ()
         | o ->
           failwith
             (sp "juliet-grid reference: %s good version gave %s" c.case_id
                (outcome_string o)))
      cases;
    let tools = Array.of_list (Juliet.Runner.lineup ()) in
    let ntools = Array.length tools in
    let npairs = Array.length cases * ntools in
    (* position in the round -> (pair index, the sample's result); the
       pins check plain and traced rounds alike *)
    let results : (int * Juliet.Runner.case_result) option array =
      Array.make npairs None
    in
    (* [Juliet.Runner.run_one], traced: (verdict, good_fp) *)
    let traced_one (san : Spec.t) (c : Juliet.Case.t) ~sample =
      let job src =
        Pipeline.job ~lines:c.lines ~packets:c.packets ~budget:juliet_budget
          ~backend:Vm.Machine.Interp src
      in
      let bad = job c.bad_src and good = job c.good_src in
      let run () =
        if Juliet.Runner.excluded_by san.Spec.name c then None
        else
          match
            let b, _ = Pipeline.run_traced san bad in
            let g, gmd = Pipeline.run_traced san good in
            (b, g, gmd)
          with
          | exception Spec.Unsupported _ -> None
          | runs -> Some runs
      in
      match Span.sample_span sample "sample" run with
      | None -> (Juliet.Runner.Excluded, false)
      | Some (b, g, gmd) ->
        let split =
          if String.equal san.Spec.name Pipeline.cecsan.Spec.name
          && Pipeline.finding_free g
          then Some (good, gmd)
          else None
        in
        after_sample ?split [ bad; good ];
        ( (if reported b.Driver.outcome then Juliet.Runner.Detected
           else Juliet.Runner.Missed),
          reported g.Driver.outcome )
    in
    let items =
      Array.mapi
        (fun pos k ->
           let c = cases.(k / ntools) and san = tools.(k mod ntools) in
           { group = san.Spec.name;
             clear_cache = (pos = 0);
             plain =
               (fun () ->
                  let cr =
                    Juliet.Runner.run_one ~backend:Vm.Machine.Interp san c
                  in
                  results.(pos) <- Some (k, cr);
                  (true, ""));
             traced =
               (fun ~sample ->
                  let verdict, good_fp = traced_one san c ~sample in
                  results.(pos) <-
                    Some (k, { Juliet.Runner.case = c; verdict; good_fp });
                  ok_traced) })
        (permutation ~seed npairs)
    in
    let verify_round () =
      (* tally (tool, cwe) -> evaluated, detected, false positives *)
      let tally = Hashtbl.create 64 in
      Array.iter
        (function
          | None -> ()
          | Some (k, (cr : Juliet.Runner.case_result)) ->
            let key =
              (tools.(k mod ntools).Spec.name, cases.(k / ntools).Juliet.Case.cwe)
            in
            let e, d, f =
              Option.value ~default:(0, 0, 0) (Hashtbl.find_opt tally key)
            in
            if cr.Juliet.Runner.verdict <> Juliet.Runner.Excluded then
              Hashtbl.replace tally key
                ( e + 1,
                  (d + if cr.Juliet.Runner.verdict = Juliet.Runner.Detected then 1 else 0),
                  f + if cr.Juliet.Runner.good_fp then 1 else 0 ))
        results;
      let bad_cells =
        List.concat_map
          (fun (tool, cells) ->
             List.filter_map
               (fun (cwe, want) ->
                  let got =
                    Option.value ~default:(0, 0, 0) (Hashtbl.find_opt tally (tool, cwe))
                  in
                  if List.mem cwe sizes.cwes && got <> want then
                    let e, d, f = got and we, wd, wf = want in
                    Some
                      ((tool, cwe),
                       sp "%s %s: evaluated/detected/fp %d/%d/%d, pinned %d/%d/%d"
                         tool (Juliet.Case.cwe_name cwe) e d f we wd wf)
                  else None)
               cells)
          juliet_pins
      in
      List.concat
        (List.mapi
           (fun pos slot ->
              match slot with
              | Some (k, _) ->
                let key =
                  (tools.(k mod ntools).Spec.name, cases.(k / ntools).Juliet.Case.cwe)
                in
                (match List.assoc_opt key bad_cells with
                 | Some d -> [ (pos, d) ]
                 | None -> [])
              | None -> [ (pos, "sample did not run") ])
           (Array.to_list results))
    in
    let rows best =
      List.map
        (fun (san : Spec.t) ->
           let ms =
             List.filter_map
               (fun (g, ns) ->
                  if String.equal g san.Spec.name then Some (Ledger.ms_of_ns ns)
                  else None)
               best
           in
           Ledger.row ~n:(List.length ms) (sp "sanitizer.%s.ms" san.Spec.name)
             "ms" (Ledger.median ms))
        (Array.to_list tools)
    in
    { items =
        (fun _ ->
           Array.fill results 0 npairs None;
           items);
      verify_round; rows; rss_kb = self_rss; digest = no_digest;
      close = ignore }
  in
  { name = "juliet-grid"; setup }

(* --- serve-replay --------------------------------------------------------------- *)

(* The daemon as a child process: requests on its stdin, responses on
   its stdout, its stderr shared with ours. *)
type daemon = {
  pid : int;
  to_d : out_channel;
  from_d : in_channel;
  mutable alive : bool;
}

let spawn exe =
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process exe [| exe; "-j"; "1" |] in_r out_w Unix.stderr
  in
  Unix.close in_r;
  Unix.close out_w;
  { pid; to_d = Unix.out_channel_of_descr in_w;
    from_d = Unix.in_channel_of_descr out_r; alive = true }

(* One closed-loop exchange: the request line, a blank line (the flush
   boundary), then the one response line. *)
let exchange d line =
  output_string d.to_d line;
  output_string d.to_d "\n\n";
  flush d.to_d;
  input_line d.from_d

(* Shuts the daemon down and reaps it; kills it if it does not answer. *)
let stop d =
  if d.alive then begin
    d.alive <- false;
    (try ignore (exchange d "{\"op\": \"shutdown\"}")
     with Sys_error _ | End_of_file -> (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ()));
    close_out_noerr d.to_d;
    close_in_noerr d.from_d;
    ignore (Unix.waitpid [] d.pid)
  end

let request_line (r : P.request) = P.to_string (P.encode_request r)

let serve_response_ok (r : P.request) line =
  match Result.bind (P.parse line) P.decode_response with
  | Ok resp when resp.P.rs_ok && resp.P.rs_id = r.P.id -> (true, "")
  | Ok resp ->
    (false, sp "request %d: response id %d, error %S" r.P.id resp.P.rs_id resp.P.rs_error)
  | Error e -> (false, sp "request %d: unreadable response (%s)" r.P.id e)

let analyze_budget = 50_000_000  (* Serve.Engine's analyze/fuzz budget *)

(* [Serve.Engine.execute], traced: the same runs, the same response. *)
let execute_traced (req : P.request) :
  P.response * (Pipeline.job * Tir.Ir.modul) option =
  let backend = req.P.backend in
  let san_of name =
    match Serve.Engine.sanitizer_of_name name with
    | Some s -> s
    | None -> failwith ("unknown sanitizer " ^ name)
  in
  let san, j =
    match req.P.op with
    | P.Analyze { source; sanitizer; optimize } ->
      ( san_of sanitizer,
        Pipeline.job ~optimize ?backend ~externs:Fuzz.Oracle.externs
          ~budget:analyze_budget source )
    | P.Fuzz { fz_seed; inject } ->
      let p =
        Span.record "fuzz_gen" (fun () ->
            Fuzz.Gen.generate ~inject (Fuzz.Tape.fresh ~seed:fz_seed))
      in
      ( Pipeline.cecsan,
        Pipeline.job ?backend ~externs:Fuzz.Oracle.externs
          ~budget:analyze_budget p.Fuzz.Gen.src )
    | P.Bench { kernel; sanitizer } ->
      (match Serve.Engine.kernel_of_name kernel with
       | Some w ->
         ( san_of sanitizer,
           Pipeline.job ?backend ~budget:Harness.Overhead.default_budget
             w.Workloads.Spec2006.w_source )
       | None -> failwith ("unknown kernel " ^ kernel))
  in
  let r, md = Pipeline.run_traced san j in
  let resp =
    { P.rs_id = req.P.id; rs_ok = true;
      rs_outcome = outcome_string r.Driver.outcome;
      rs_detected = reported r.Driver.outcome;
      rs_cycles = r.Driver.cycles;
      rs_reports = List.length r.Driver.reports;
      rs_error = "" }
  in
  let split =
    if String.equal san.Spec.name Pipeline.cecsan.Spec.name
    && Pipeline.finding_free r
    then Some (j, md)
    else None
  in
  (resp, split)

let op_name (r : P.request) =
  match r.P.op with
  | P.Analyze _ -> "analyze"
  | P.Fuzz _ -> "fuzz"
  | P.Bench _ -> "bench"

(* The traffic mix: Serve.Sim's synthetic stream at bench --serve-sim's
   default seed.  Its tail is a handful of SPEC kernel requests, so the
   pool is fixed and the run seed only orders it: a seed-drawn pool
   would move the tail percentile with the draw. *)
let serve_pool_seed = 0x5EED

(* Starts a daemon and waits for its first reply. *)
let start_daemon serve_exe =
  let d = spawn serve_exe in
  let probe =
    { P.id = -1; backend = None;
      op = P.Analyze { source = "int main() { return 0; }";
                       sanitizer = "none"; optimize = true } }
  in
  match serve_response_ok probe (exchange d (request_line probe)) with
  | true, _ -> d
  | false, e -> stop d; failwith ("serve-replay: daemon probe failed: " ^ e)
  | exception e -> stop d; raise e

(* Serve.Sim's request pool, replayed through a real [cecsan_serve -j 1]
   child as a closed loop: one request in flight, each followed by a
   flush line.  Every round starts a fresh daemon, so each round sees
   the same cold compile cache.  Setup: the pool, and the daemon's
   start until its first reply. *)
let serve_replay =
  let setup ~seed (sizes : sizes) ~serve_exe =
    let pool =
      Array.of_list (Serve.Sim.gen_requests ~seed:serve_pool_seed sizes.requests)
    in
    let d = ref (start_daemon serve_exe) in
    let digest = Buffer.create 4096 in
    (* op -> in-process ns, client minus in-process ns (traced runs) *)
    let inproc = Hashtbl.create 4 and ipc = ref [] in
    let item (q : P.request) =
      let line = request_line q in
      let exchange_timed () =
        let t0 = Span.now_ns () in
        let l = exchange !d line in
        let ns = Span.now_ns () - t0 in
        Buffer.add_string digest l;
        Buffer.add_char digest '\n';
        (l, ns)
      in
      (* the untraced in-process replay: decode, execute, encode *)
      let in_process () =
        Pipeline.clear_compile_cache ();
        let t0 = Span.now_ns () in
        let l =
          match P.decode_line line with
          | Ok (P.Request r) ->
            P.to_string
              (P.encode_response (Serve.Engine.execute r).Serve.Engine.r_response)
          | Ok _ | Error _ -> "undecodable"
        in
        (l, Span.now_ns () - t0)
      in
      let traced_replay sample () =
        Pipeline.clear_compile_cache ();
        Span.sample_span sample "sample" (fun () ->
            match Span.record "decode" (fun () -> P.decode_line line) with
            | Ok (P.Request r) ->
              let resp, split = execute_traced r in
              ( Span.record "encode" (fun () ->
                    P.to_string (P.encode_response resp)),
                split )
            | Ok _ | Error _ -> failwith "undecodable request line")
      in
      { group = op_name q;
        clear_cache = false;
        plain = (fun () -> serve_response_ok q (fst (exchange_timed ())));
        traced =
          (fun ~sample ->
             let reply, client_ns = exchange_timed () in
             (* alternate which in-process replay goes first; each starts
                from an empty compile cache *)
             let (base, base_ns), (traced_line, split) =
               if sample land 1 = 0 then
                 let b = in_process () in
                 (b, traced_replay sample ())
               else
                 let t = traced_replay sample () in
                 (in_process (), t)
             in
             after_sample ?split [];
             Hashtbl.replace inproc (op_name q)
               (base_ns :: Option.value ~default:[] (Hashtbl.find_opt inproc (op_name q)));
             ipc := (client_ns - base_ns) :: !ipc;
             match serve_response_ok q reply with
             | false, detail -> { ok = false; detail; base_ns = Some base_ns }
             | true, _ when String.equal traced_line reply
                         && String.equal base reply ->
               { ok_traced with base_ns = Some base_ns }
             | true, _ ->
               { ok = false; base_ns = Some base_ns;
                 detail =
                   sp "request %d: daemon %S, in-process %S, traced %S" q.P.id
                     reply base traced_line }) }
    in
    let rows _ =
      let med xs =
        (List.length xs, Ledger.median (List.map Ledger.ms_of_ns xs))
      in
      let row name (n, v) = Ledger.row ~n name "ms" v in
      if !ipc = [] then []
      else
        row "serve.ipc_ms" (med !ipc)
        :: List.map
          (fun op ->
             row (sp "serve.execute_ms.%s" op)
               (med (Option.value ~default:[] (Hashtbl.find_opt inproc op))))
          [ "analyze"; "fuzz"; "bench" ]
    in
    let items = Array.map (fun i -> item pool.(i)) (permutation ~seed (Array.length pool)) in
    { items =
        (fun r ->
           if r > 0 then begin
             stop !d;
             d := start_daemon serve_exe
           end;
           items);
      verify_round = no_round_checks;
      rows;
      rss_kb = (fun () -> Ledger.peak_rss_kb (string_of_int !d.pid));
      digest =
        (fun () -> Some (Digest.to_hex (Digest.string (Buffer.contents digest))));
      close = (fun () -> stop !d) }
  in
  { name = "serve-replay"; setup }

let all = [ spec_exec; minic_triage; juliet_grid; serve_replay ]
