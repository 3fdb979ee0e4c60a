(* Recoverable enforcement (the Report.sink) and fault injection
   (Vm.Fault): a run with findings completes with the program's own
   exit code and stdout, the sink dedups and caps, and injected
   allocator/table/tag faults degrade coverage without losing the
   workload. *)

let cecsan = Cecsan.sanitizer ()
let chain = Cecsan.sanitizer ~config:Cecsan.Config.with_chain ()

let run ?policy ?fault ?(san = cecsan) src =
  Sanitizer.Driver.run san ?policy ?fault src

let recover ?(max_reports = Vm.Report.default_max_reports) () =
  Vm.Report.Recover { max_reports }

let kinds reports =
  List.map (fun r -> Vm.Report.kind_to_string r.Vm.Report.r_kind) reports

let stat r key =
  match
    List.assoc_opt key r.Sanitizer.Driver.snapshot.Telemetry.Snapshot.gauges
  with
  | Some v -> v
  | None -> 0

(* Three distinct violations, all harmless to the raw machine (the
   overflow bytes stay inside mapped heap pages; freed blocks stay
   mapped), so the uninstrumented run is the ground truth a recovering
   run must match byte for byte. *)
let three_violations_src = {|
int main() {
  puts("begin");
  char *p = (char*)malloc(16);
  char *pad = (char*)malloc(16);
  pad[0] = 'p';
  p[16] = 'x';
  char *q = (char*)malloc(8);
  q[0] = 'a';
  free(q);
  int c = q[0];
  putchar(c);
  int d = p[17];
  putchar(48 + (d & 1));
  putchar(10);
  puts("end");
  free(p);
  free(pad);
  return 42;
}
|}

(* A clean malloc/free churn: 32 blocks through a 17-bit table is
   nothing, through an injected 8-entry table it is an exhaustion
   workload.  Expected exit: (0+1+...+31) land 255 = 240. *)
let churn_src = {|
int main() {
  int n = 32;
  char **h = (char**)malloc(n * sizeof(char*));
  int sum = 0;
  for (int i = 0; i < n; i++) { h[i] = (char*)malloc(16); h[i][0] = i; }
  for (int i = 0; i < n; i++) sum = sum + h[i][0];
  for (int i = 0; i < n; i++) free(h[i]);
  free(h);
  return sum & 255;
}
|}

let recover_tests =
  [
    Alcotest.test_case "halt default still raises on the first finding"
      `Quick (fun () ->
        let r = run three_violations_src in
        (match r.Sanitizer.Driver.outcome with
         | Vm.Machine.Bug b ->
           Alcotest.(check string) "first violation wins" "out-of-bounds-write"
             (Vm.Report.kind_to_string b.Vm.Report.r_kind)
         | o ->
           Alcotest.failf "expected Bug, got %a" Vm.Machine.pp_outcome o);
        Alcotest.(check int) "no sink reports under Halt" 0
          (List.length r.Sanitizer.Driver.reports);
        Alcotest.(check int) "nothing suppressed" 0
          r.Sanitizer.Driver.suppressed);
    Alcotest.test_case
      "recover completes with the uninstrumented run's behavior" `Quick
      (fun () ->
        let plain = run ~san:Sanitizer.Spec.none three_violations_src in
        let code0 =
          match plain.Sanitizer.Driver.outcome with
          | Vm.Machine.Exit c -> c
          | o ->
            Alcotest.failf "uninstrumented run must be clean, got %a"
              Vm.Machine.pp_outcome o
        in
        Alcotest.(check int) "ground-truth exit code" 42 code0;
        let r = run ~policy:(recover ()) three_violations_src in
        match r.Sanitizer.Driver.outcome with
        | Vm.Machine.Completed_with_bugs { code; reports; suppressed } ->
          Alcotest.(check int) "exit code preserved" code0 code;
          Alcotest.(check string) "stdout identical"
            plain.Sanitizer.Driver.output r.Sanitizer.Driver.output;
          Alcotest.(check (list string))
            "exactly three findings, in submission order"
            [ "out-of-bounds-write"; "use-after-free";
              "out-of-bounds-read" ]
            (kinds reports);
          Alcotest.(check int) "none suppressed" 0 suppressed;
          Alcotest.(check (list string)) "run_result mirrors the outcome"
            (kinds reports) (kinds r.Sanitizer.Driver.reports)
        | o ->
          Alcotest.failf "expected Completed_with_bugs, got %a"
            Vm.Machine.pp_outcome o);
    Alcotest.test_case "max_reports caps and counts the overflow" `Quick
      (fun () ->
        let r =
          run ~policy:(recover ~max_reports:1 ()) three_violations_src
        in
        match r.Sanitizer.Driver.outcome with
        | Vm.Machine.Completed_with_bugs { code; reports; suppressed } ->
          Alcotest.(check int) "exit code preserved" 42 code;
          Alcotest.(check (list string)) "one finding recorded"
            [ "out-of-bounds-write" ] (kinds reports);
          Alcotest.(check int) "two findings suppressed" 2 suppressed
        | o ->
          Alcotest.failf "expected Completed_with_bugs, got %a"
            Vm.Machine.pp_outcome o);
    Alcotest.test_case "repeated findings dedup to one report" `Quick
      (fun () ->
        let r =
          run ~policy:(recover ())
            {|
int main() {
  char *p = (char*)malloc(16);
  char *pad = (char*)malloc(64);
  pad[0] = 'p';
  for (int i = 0; i < 5; i++) { p[16] = 'x'; }
  free(p);
  free(pad);
  return 7;
}
|}
        in
        match r.Sanitizer.Driver.outcome with
        | Vm.Machine.Completed_with_bugs { code; reports; suppressed } ->
          Alcotest.(check int) "exit code preserved" 7 code;
          Alcotest.(check int) "one deduped report" 1
            (List.length reports);
          Alcotest.(check int) "four duplicates suppressed" 4 suppressed
        | o ->
          Alcotest.failf "expected Completed_with_bugs, got %a"
            Vm.Machine.pp_outcome o);
  ]

let fault_tests =
  [
    Alcotest.test_case "table:8 entry-0 fallback completes with telemetry"
      `Quick (fun () ->
        let r =
          run ~policy:(recover ())
            ~fault:(Vm.Fault.of_specs [ Vm.Fault.Table 8 ]) churn_src
        in
        (match r.Sanitizer.Driver.outcome with
         | Vm.Machine.Exit 240 -> ()
         | o ->
           Alcotest.failf "expected a clean exit 240, got %a"
             Vm.Machine.pp_outcome o);
        Alcotest.(check bool) "exhausted_fallbacks > 0" true
          (stat r "exhausted_fallbacks" > 0));
    Alcotest.test_case "table:8 chain mode completes with telemetry"
      `Quick (fun () ->
        let r =
          run ~san:chain ~policy:(recover ())
            ~fault:(Vm.Fault.of_specs [ Vm.Fault.Table 8 ]) churn_src
        in
        (match r.Sanitizer.Driver.outcome with
         | Vm.Machine.Exit 240 -> ()
         | o ->
           Alcotest.failf "expected a clean exit 240, got %a"
             Vm.Machine.pp_outcome o);
        Alcotest.(check bool) "chained > 0" true (stat r "chained" > 0));
    Alcotest.test_case "oom:N serves NULL; a checking program survives"
      `Quick (fun () ->
        let r =
          run ~policy:(recover ())
            ~fault:(Vm.Fault.of_specs [ Vm.Fault.Oom 3 ])
            {|
int main() {
  int got = 0;
  for (int i = 0; i < 8; i++) {
    char *p = (char*)malloc(32);
    if (p != 0) { p[0] = 'x'; got = got + 1; }
  }
  return got;
}
|}
        in
        (match r.Sanitizer.Driver.outcome with
         | Vm.Machine.Exit c ->
           Alcotest.(check bool) "some mallocs served" true (c >= 1);
           Alcotest.(check bool) "some mallocs denied" true (c < 8)
         | o ->
           Alcotest.failf "expected a clean exit, got %a"
             Vm.Machine.pp_outcome o);
        Alcotest.(check bool) "injected_oom > 0" true
          (stat r "injected_oom" > 0));
    Alcotest.test_case "tagflip corrupts coverage, not the workload"
      `Quick (fun () ->
        let r =
          run ~policy:(recover ())
            ~fault:(Vm.Fault.of_specs [ Vm.Fault.Tagflip 5 ]) churn_src
        in
        (match r.Sanitizer.Driver.outcome with
         | Vm.Machine.Exit 240
         | Vm.Machine.Completed_with_bugs { code = 240; _ } -> ()
         | o ->
           Alcotest.failf "expected completion with exit 240, got %a"
             Vm.Machine.pp_outcome o);
        Alcotest.(check bool) "injected_tagflips > 0" true
          (stat r "injected_tagflips" > 0));
    Alcotest.test_case "an inert injector changes nothing" `Quick
      (fun () ->
        let r0 = run churn_src in
        let r1 = run ~fault:(Vm.Fault.none ()) churn_src in
        (match r0.Sanitizer.Driver.outcome, r1.Sanitizer.Driver.outcome with
         | Vm.Machine.Exit a, Vm.Machine.Exit b ->
           Alcotest.(check int) "same exit code" a b
         | a, b ->
           Alcotest.failf "runs diverged: %a vs %a" Vm.Machine.pp_outcome a
             Vm.Machine.pp_outcome b);
        Alcotest.(check int) "same cycle count" r0.Sanitizer.Driver.cycles
          r1.Sanitizer.Driver.cycles;
        Alcotest.(check string) "same output" r0.Sanitizer.Driver.output
          r1.Sanitizer.Driver.output);
    Alcotest.test_case "fault spec parsing" `Quick (fun () ->
        let ok s spec =
          match Vm.Fault.parse s with
          | Ok got ->
            Alcotest.(check string) s (Vm.Fault.spec_to_string spec)
              (Vm.Fault.spec_to_string got)
          | Error m -> Alcotest.failf "parse %S failed: %s" s m
        in
        ok "oom:40" (Vm.Fault.Oom 40);
        ok "table:8" (Vm.Fault.Table 8);
        ok "tagflip:97" (Vm.Fault.Tagflip 97);
        List.iter
          (fun s ->
            match Vm.Fault.parse s with
            | Ok _ -> Alcotest.failf "parse %S should fail" s
            | Error _ -> ())
          [ "bogus"; "oom"; "oom:"; "oom:x"; "table:-"; ":3" ]);
  ]

let () =
  Alcotest.run "recover"
    [ "recover", recover_tests; "faults", fault_tests ]
