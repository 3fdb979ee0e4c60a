(* Fuzz.Oracle: the differential verdict machinery.

   Each generated program runs uninstrumented (the ground truth) and
   under CECSan in Halt and Recover modes with the optimizer on and off,
   plus any selected baselines.  The verdict rules mirror DESIGN.md
   section 3's capability matrix:

   - false positive: a clean program drew a report from any tool;
   - divergence: on a clean program, an instrumented run's stdout or
     exit code differs from the uninstrumented run (clean programs are
     allocator-layout independent by construction, so any difference is
     an instrumentation bug);
   - false negative: a planted bug was missed by a sanitizer whose
     capability matrix row says it MUST catch that class (the matrix
     below encodes only the unambiguous cells; "tag-collision chance"
     style cells are never required);
   - misclassified: CECSan caught the planted bug but reported the
     wrong kind (only CECSan is held to kind accuracy);
   - optimizer unsoundness: CECSan detects with the optimizer on but
     not off, or vice versa. *)

let sp = Printf.sprintf

(* Extern implementations registered for every run (generated programs
   may call these; they model precompiled legacy code).  [effective]
   applies the TBI address mask so HWASan-tagged pointers translate the
   way real hardware would; CECSan strips tags in software before the
   call, which is exactly the boundary behavior under test. *)
let externs =
  [
    ( "ext_sum",
      fun (st : Vm.State.t) (args : int array) ->
        let a = Vm.State.effective st args.(0) in
        let n = args.(1) in
        let s = ref 0 in
        for i = 0 to n - 1 do
          s := !s + Vm.Memory.load_byte st.Vm.State.mem (a + i)
        done;
        !s land 0xffff );
    ("ext_note", fun _ args -> ((args.(0) * 3) + 1) land 0xff);
  ]

type tool_run = {
  tool : string;
  detected : bool;          (* a report was produced (Bug / sink entry) *)
  outcome : string;         (* compact outcome class, for messages *)
  out_text : string;
  exit_code : int option;
  excluded : bool;          (* Spec.Unsupported: outside the tool's set *)
  first_kind : Vm.Report.bug_kind option;
  snapshot : Telemetry.Snapshot.t;  (* the run's telemetry, for deltas *)
  sites : int list;         (* every instrumented site id, reached or not *)
}

type failure =
  | Gen_invalid of string   (* generator emitted a non-clean/ill program *)
  | False_positive of { tool : string; detail : string }
  | False_negative of { tool : string; cls : Gen.bug_class }
  | Misclassified of { tool : string; expected : Gen.bug_class;
                       got : string }
  | Divergence of { tool : string; detail : string }
  | Opt_unsound of { detail : string }
  | Verifier_reject of { tool : string; detail : string }
    (* Tir.Verify refused the tool's instrumented/optimized output *)

(* Stable constructor+tool label: shrinking preserves the failure class,
   and campaign summaries histogram on it. *)
let failure_name = function
  | Gen_invalid _ -> "gen-invalid"
  | False_positive { tool; _ } -> sp "false-positive:%s" tool
  | False_negative { tool; cls } ->
    sp "false-negative:%s:%s" tool (Gen.class_name cls)
  | Misclassified { tool; expected; _ } ->
    sp "misclassified:%s:%s" tool (Gen.class_name expected)
  | Divergence { tool; _ } -> sp "divergence:%s" tool
  | Opt_unsound _ -> "opt-unsound"
  | Verifier_reject { tool; _ } -> sp "verifier-reject:%s" tool

let failure_detail = function
  | Gen_invalid d -> d
  | False_positive { detail; _ } -> detail
  | False_negative { cls; _ } ->
    sp "planted %s not reported" (Gen.class_name cls)
  | Misclassified { expected; got; _ } ->
    sp "planted %s reported as %s" (Gen.class_name expected) got
  | Divergence { detail; _ } -> detail
  | Opt_unsound { detail } -> detail
  | Verifier_reject { detail; _ } -> detail

(* --- the must-catch capability matrix (conservative cells only) ---------- *)

(* [must_catch ~tool plan]: true only where DESIGN.md section 3 has an
   unambiguous checkmark for this mechanism.  Far strides are required
   of bounds-based tools only; HWASan granule padding, quarantine
   eviction etc. make the redzone/tag tools "may" on everything
   spatial that is not adjacent. *)
let must_catch ~tool (p : Gen.plan) =
  match tool with
  | "CECSan" | "CECSan-noopt" | "CECSan-chain" | "CECSan-noabsint" -> true
  | "CECSan-nosubobj" -> p.cls <> Gen.Subobject
  | "ASan" | "ASan--" ->
    (match p.cls with
     | Gen.Spatial_heap | Gen.Spatial_stack | Gen.Spatial_global ->
       not p.far  (* adjacent bytes land in the redzone *)
     | Gen.Subobject -> false
     | Gen.Uaf -> true   (* immediate reuse: quarantine still holds it *)
     | Gen.Double_free -> true
     | Gen.Invalid_free -> false (* "mostly" per the paper: not required *))
  | "HWASan" ->
    (match p.cls with
     | Gen.Uaf -> true   (* freed memory is retagged immediately *)
     | Gen.Double_free -> true
     | _ -> false        (* granule padding / tag collisions / no free
                            check: nothing else is guaranteed *))
  | "PACMem" | "CryptSan" ->
    (match p.cls with
     | Gen.Spatial_heap -> not p.far
     | Gen.Uaf | Gen.Double_free | Gen.Invalid_free -> true
     | _ -> false)
  | "SoftBound+CETS" | "SoftBound" ->
    (match p.cls with
     | Gen.Spatial_heap -> not p.far
     | Gen.Uaf | Gen.Double_free -> true
     | _ -> false)
  | _ -> false

let kind_ok (cls : Gen.bug_class) (k : Vm.Report.bug_kind) =
  match cls, k with
  | (Gen.Spatial_heap | Gen.Spatial_stack | Gen.Spatial_global),
    (Vm.Report.Oob_read | Vm.Report.Oob_write) -> true
  | Gen.Subobject,
    (Vm.Report.Sub_object_overflow | Vm.Report.Oob_read
    | Vm.Report.Oob_write) -> true
  | Gen.Uaf, Vm.Report.Use_after_free -> true
  | Gen.Double_free, Vm.Report.Double_free -> true
  | Gen.Invalid_free, Vm.Report.Invalid_free -> true
  | _ -> false

(* --- running one tool ---------------------------------------------------- *)

exception Compile_error of string

let run_tool (san : Sanitizer.Spec.t) ?policy ?fault ?backend ~optimize
    (src : string) : tool_run =
  let tool = san.Sanitizer.Spec.name in
  match
    Sanitizer.Driver.run san ~externs ?policy ?fault ?backend ~optimize src
  with
  | r ->
    let detected =
      Vm.Machine.outcome_is_bug r.Sanitizer.Driver.outcome
      || r.Sanitizer.Driver.reports <> []
    in
    let outcome, exit_code =
      match r.Sanitizer.Driver.outcome with
      | Vm.Machine.Exit c -> (sp "exit:%d" c, Some c)
      | Vm.Machine.Completed_with_bugs { code; _ } ->
        (sp "recovered-exit:%d" code, Some code)
      | Vm.Machine.Bug b ->
        (sp "bug:%s" (Vm.Report.kind_to_string b.Vm.Report.r_kind), None)
      | Vm.Machine.Fault t ->
        (sp "fault:%s" (Vm.Report.trap_kind_to_string t.Vm.Report.t_kind),
         None)
    in
    let first_kind =
      match r.Sanitizer.Driver.outcome with
      | Vm.Machine.Bug b -> Some b.Vm.Report.r_kind
      | _ ->
        (match r.Sanitizer.Driver.reports with
         | b :: _ -> Some b.Vm.Report.r_kind
         | [] -> None)
    in
    { tool; detected; outcome; out_text = r.Sanitizer.Driver.output;
      exit_code; excluded = false; first_kind;
      snapshot = r.Sanitizer.Driver.snapshot;
      sites = List.map fst r.Sanitizer.Driver.site_labels }
  | exception Sanitizer.Spec.Unsupported _ ->
    { tool; detected = false; outcome = "excluded"; out_text = "";
      exit_code = None; excluded = true; first_kind = None;
      snapshot = Telemetry.Snapshot.empty; sites = [] }
  | exception Minic.Sema.Error (m, l) ->
    raise (Compile_error (sp "line %d: %s" l m))
  | exception Tir.Lower.Error m -> raise (Compile_error m)

(* --- the full verdict ---------------------------------------------------- *)

let recover_policy =
  Vm.Report.Recover { max_reports = Vm.Report.default_max_reports }

(* Baselines selectable for a campaign, by CLI name. *)
let baseline_of_name = function
  | "asan" -> Some (Baselines.Asan.sanitizer ())
  | "asan--" -> Some (Baselines.Asan_minus.sanitizer ())
  | "hwasan" -> Some (Baselines.Hwasan.sanitizer ())
  | "softbound" -> Some (Baselines.Softbound_cets.sanitizer ())
  | "pacmem" -> Some (Baselines.Pacmem.sanitizer ())
  | "cryptsan" -> Some (Baselines.Cryptsan.sanitizer ())
  | _ -> None

(* The guided fuzzer's feedback signal: one bitmap leg per instrumented
   CECSan pipeline variant (O2 / O0 / noabsint — the legs whose
   elide/cover split actually differs), then one per extra baseline, in
   lineup order.  Each leg derives from the FULL site-row view
   ([Telemetry.Snapshot.sites_full]) so instrumented-but-unreached
   sites stay distinguishable from uninstrumented ones. *)
let coverage_of_runs (runs : tool_run list) : Coverage.t =
  List.fold_left
    (fun (acc, leg) tr ->
       if leg >= Coverage.max_legs then (acc, leg)
       else
         ( Coverage.union acc
             (Coverage.of_rows ~leg
                (Telemetry.Snapshot.sites_full ~sites:tr.sites tr.snapshot)),
           leg + 1 ))
    (Coverage.empty, 0) runs
  |> fst

(* Like [evaluate], but also returns the CECSan(-O2) run's telemetry
   snapshot so campaigns can aggregate per-site profiles across the
   whole grid (merged in submission order, deterministic at any -j),
   and the program's coverage bitmap for guided campaigns. *)
let evaluate_cov ?(tools = []) ?fault ?backend (p : Gen.program) :
  failure list * Telemetry.Snapshot.t * Coverage.t =
  match
    let cec () = Cecsan.sanitizer () in
    (* the injector, when given, threads into every run uniformly --
       including the uninstrumented reference -- so a crash/fuel fault
       kills the whole task rather than biasing one tool's verdict *)
    let ref_run =
      run_tool Sanitizer.Spec.none ?fault ?backend ~optimize:true p.Gen.src
    in
    let cec_on =
      run_tool (cec ()) ?fault ?backend ~optimize:true p.Gen.src
    in
    let cec_off =
      { (run_tool (cec ()) ?fault ?backend ~optimize:false p.Gen.src) with
        tool = "CECSan-O0" }
    in
    let cec_rec =
      { (run_tool (cec ()) ?fault ?backend ~policy:recover_policy
           ~optimize:true p.Gen.src)
        with tool = "CECSan-recover" }
    in
    (* certified elision must be invisible: same detections, same
       telemetry law, never more cycles than the absint-off pipeline *)
    let cec_noabs =
      { (run_tool
           (Cecsan.sanitizer
              ~config:
                { Cecsan.Config.default with Cecsan.Config.opt_absint = false }
              ())
           ?fault ?backend ~optimize:true p.Gen.src)
        with tool = "CECSan-noabsint" }
    in
    let extras =
      List.map
        (fun san -> run_tool san ?fault ?backend ~optimize:true p.Gen.src)
        tools
    in
    (ref_run, cec_on, cec_off, cec_rec, cec_noabs, extras)
  with
  | exception Compile_error m ->
    ( [ Gen_invalid (sp "does not compile: %s" m) ],
      Telemetry.Snapshot.empty, Coverage.empty )
  | exception Sanitizer.Driver.Verifier_reject { tool; stage; errors } ->
    (* static certification failed: a first-class verdict on its own,
       and the runs behind it never happened *)
    ( [ Verifier_reject
          { tool;
            detail =
              sp "%s: %s" stage
                (match errors with e :: _ -> e | [] -> "rejected") } ],
      Telemetry.Snapshot.empty, Coverage.empty )
  | ref_run, cec_on, cec_off, cec_rec, cec_noabs, extras ->
    let failures = ref [] in
    let flag f = failures := f :: !failures in
    (match p.Gen.plan with
     | None ->
       (* clean program: the reference must exit, everyone must agree *)
       (match ref_run.exit_code with
        | None ->
          flag (Gen_invalid (sp "clean program did not exit cleanly (%s)"
                               ref_run.outcome))
        | Some _ ->
          List.iter
            (fun tr ->
               if tr.excluded then ()
               else if tr.detected then
                 flag (False_positive
                         { tool = tr.tool;
                           detail = sp "clean program reported as %s"
                               tr.outcome })
               else if
                 tr.exit_code <> ref_run.exit_code
                 || not (String.equal tr.out_text ref_run.out_text)
               then
                 (* the telemetry delta against the reference run says
                    WHERE the instrumented run went off the rails (an
                    extra check failure, table drift, lost allocations) *)
                 flag (Divergence
                         { tool = tr.tool;
                           detail =
                             sp "expected %s %S, got %s %S; %s"
                               ref_run.outcome ref_run.out_text tr.outcome
                               tr.out_text
                               (Telemetry.Snapshot.delta_summary
                                  ref_run.snapshot tr.snapshot) }))
            (cec_on :: cec_off :: cec_rec :: cec_noabs :: extras))
     | Some plan ->
       let check_tool ~matrix_tool tr =
         if (not tr.excluded) && must_catch ~tool:matrix_tool plan
         && not tr.detected
         then flag (False_negative { tool = tr.tool; cls = plan.Gen.cls })
       in
       check_tool ~matrix_tool:"CECSan" cec_on;
       check_tool ~matrix_tool:"CECSan" cec_off;
       check_tool ~matrix_tool:"CECSan" cec_rec;
       check_tool ~matrix_tool:"CECSan" cec_noabs;
       List.iter (fun tr -> check_tool ~matrix_tool:tr.tool tr) extras;
       if cec_on.detected <> cec_off.detected then
         flag (Opt_unsound
                 { detail =
                     sp "opt-on %s vs opt-off %s; %s" cec_on.outcome
                       cec_off.outcome
                       (Telemetry.Snapshot.delta_summary cec_off.snapshot
                          cec_on.snapshot) });
       if cec_on.detected <> cec_noabs.detected then
         flag (Opt_unsound
                 { detail =
                     sp "absint-on %s vs absint-off %s; %s" cec_on.outcome
                       cec_noabs.outcome
                       (Telemetry.Snapshot.delta_summary cec_noabs.snapshot
                          cec_on.snapshot) });
       (match cec_on.first_kind with
        | Some k when not (kind_ok plan.Gen.cls k) ->
          flag (Misclassified
                  { tool = cec_on.tool; expected = plan.Gen.cls;
                    got = Vm.Report.kind_to_string k })
        | _ -> ()));
    ( List.rev !failures, cec_on.snapshot,
      coverage_of_runs (cec_on :: cec_off :: cec_noabs :: extras) )

let evaluate ?tools ?fault ?backend (p : Gen.program) : failure list =
  let fs, _, _ = evaluate_cov ?tools ?fault ?backend p in
  fs
