(* Differential tests of the threaded-code jit backend (Vm.Jit) against
   the reference interpreter: identical outcomes, diagnostics, cycle
   counts and telemetry on generated programs across every sanitizer,
   under fault injection, plus cache regression tests (no re-resolution
   or re-compilation on repeated runs, fuel burned identically on jit
   compile-cache hits and misses), the last-page-cache audit driven
   through jitted code, and the inlined Algorithm 1 check: its
   fallbacks, its binding rule and metadata entries whose bounds sit on
   two pages.  Hand-built modules pin copy forwarding, the word-wide
   memory path, every operator and compare in every operand shape over
   edge values, registers, slots and branch targets outside the frame,
   and unbound intrinsic slots. *)

(* CECSan and every cross-check baseline, from the tool table *)
let sanitizers () =
  List.map
    (fun k -> (k, Option.get (Baselines.Tools.make k)))
    ("cecsan" :: Baselines.Tools.(keys baselines))

let seed_gen = QCheck.(map abs int)

(* Everything observable about a run, as strings, so a mismatch prints
   both sides verbatim.  The snapshot comparison is byte equality of
   the deterministic JSON rendering. *)
type obs = {
  o_outcome : string;
  o_output : string;
  o_cycles : int;
  o_reports : string list;
  o_suppressed : int;
  o_snapshot : string;
}

let observe (r : Sanitizer.Driver.run_result) =
  { o_outcome =
      Format.asprintf "%a" Vm.Machine.pp_outcome r.Sanitizer.Driver.outcome;
    o_output = r.Sanitizer.Driver.output;
    o_cycles = r.Sanitizer.Driver.cycles;
    o_reports =
      List.map
        (Format.asprintf "%a" Vm.Report.pp)
        r.Sanitizer.Driver.reports;
    o_suppressed = r.Sanitizer.Driver.suppressed;
    o_snapshot = Telemetry.Snapshot.to_json r.Sanitizer.Driver.snapshot }

(* A run can also end in an injected crash or fuel exhaustion; both are
   part of the observable surface the backends must agree on. *)
type run_obs =
  | Completed of obs
  | Injected_crash of int
  | Fuel_out of string * int

let run_obs ~policy ?fault_spec backend san md =
  let fault =
    match fault_spec with
    | None -> None
    | Some s ->
      (match Vm.Fault.parse s with
       | Ok spec -> Some (Vm.Fault.of_specs [ spec ])
       | Error m -> Alcotest.fail m)
  in
  match
    Sanitizer.Driver.run_module san ~externs:Fuzz.Oracle.externs ~policy
      ?fault ~backend md
  with
  | r -> Completed (observe r)
  | exception Vm.Fault.Injected_crash { after } -> Injected_crash after
  | exception Tir.Fuel.Exhausted { phase; budget } -> Fuel_out (phase, budget)

let describe = function
  | Completed o ->
    Printf.sprintf "outcome=%s cycles=%d output=%S reports=[%s] sup=%d"
      o.o_outcome o.o_cycles o.o_output
      (String.concat "; " o.o_reports)
      o.o_suppressed
  | Injected_crash after -> Printf.sprintf "injected-crash after=%d" after
  | Fuel_out (phase, budget) ->
    Printf.sprintf "fuel-exhausted phase=%s budget=%d" phase budget

let agree ~ctx a b =
  let fail part sa sb =
    QCheck.Test.fail_reportf "%s: %s differs@.interp: %s@.jit:    %s" ctx
      part sa sb
  in
  match (a, b) with
  | Completed x, Completed y ->
    if not (String.equal x.o_outcome y.o_outcome) then
      fail "outcome" x.o_outcome y.o_outcome;
    if not (String.equal x.o_output y.o_output) then
      fail "output" x.o_output y.o_output;
    if x.o_cycles <> y.o_cycles then
      fail "cycles" (string_of_int x.o_cycles) (string_of_int y.o_cycles);
    if x.o_reports <> y.o_reports then
      fail "reports"
        (String.concat "; " x.o_reports)
        (String.concat "; " y.o_reports);
    if x.o_suppressed <> y.o_suppressed then
      fail "suppressed"
        (string_of_int x.o_suppressed)
        (string_of_int y.o_suppressed);
    if not (String.equal x.o_snapshot y.o_snapshot) then
      fail "telemetry snapshot" x.o_snapshot y.o_snapshot;
    true
  | a, b ->
    if a <> b then fail "termination" (describe a) (describe b);
    true

let program_of_seed seed =
  Fuzz.Gen.generate ~inject:(seed land 1 = 1) (Fuzz.Tape.fresh ~seed)

(* Half the draws exercise the Recover sink (reports list, suppression
   counter); the other half Halt (the finding is the outcome). *)
let policy_of_seed seed =
  if seed land 2 = 0 then Vm.Report.Halt
  else
    Vm.Report.Recover { max_reports = Vm.Report.default_max_reports }

let differential_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"interp and jit agree on generated programs x 7 sanitizers"
         ~count:200 seed_gen
         (fun seed ->
            let p = program_of_seed seed in
            let policy = policy_of_seed seed in
            List.for_all
              (fun (sname, san) ->
                 match Sanitizer.Driver.build san p.Fuzz.Gen.src with
                 | exception Sanitizer.Spec.Unsupported _ -> true
                 | md ->
                   let ctx = Printf.sprintf "seed %d, %s" seed sname in
                   agree ~ctx
                     (run_obs ~policy Vm.Machine.Interp san md)
                     (run_obs ~policy Vm.Machine.Jit san md))
              (sanitizers ())));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"interp and jit agree under crash:N / tagflip:N faults"
         ~count:60 seed_gen
         (fun seed ->
            let p = program_of_seed seed in
            let policy = policy_of_seed seed in
            let san = Cecsan.sanitizer () in
            match Sanitizer.Driver.build san p.Fuzz.Gen.src with
            | exception Sanitizer.Spec.Unsupported _ -> true
            | md ->
              List.for_all
                (fun spec ->
                   let ctx =
                     Printf.sprintf "seed %d, cecsan, %s" seed spec
                   in
                   agree ~ctx
                     (run_obs ~policy ~fault_spec:spec Vm.Machine.Interp
                        san md)
                     (run_obs ~policy ~fault_spec:spec Vm.Machine.Jit san
                        md))
                [ "crash:2"; "tagflip:2"; "oom:3" ]));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"interp and jit agree on the inline check's fallbacks"
         ~count:60 seed_gen
         (fun seed ->
            (* a shrunken table sends allocations to entry 0 (CECSan) or
               into overflow chains (CECSan-chain): both reach the
               inlined check's slow path *)
            let p = program_of_seed seed in
            let policy = policy_of_seed seed in
            List.for_all
              (fun (sname, spec) ->
                 let san = Option.get (Baselines.Tools.make sname) in
                 match Sanitizer.Driver.build san p.Fuzz.Gen.src with
                 | exception Sanitizer.Spec.Unsupported _ -> true
                 | md ->
                   let ctx =
                     Printf.sprintf "seed %d, %s, %s" seed sname spec
                   in
                   let run backend =
                     run_obs ~policy ~fault_spec:spec backend san md
                   in
                   agree ~ctx (run Vm.Machine.Interp) (run Vm.Machine.Jit))
              [ ("cecsan", "table:3"); ("cecsan-chain", "table:3");
                ("cecsan-chain", "table:40") ]));
    Alcotest.test_case "fuel:N exhausts identically on both backends"
      `Quick (fun () ->
        let src =
          "int main() { int s = 0; for (int i = 0; i < 9; i++) s += i; \
           return s; }"
        in
        let san = Cecsan.sanitizer () in
        let go backend budget =
          Sanitizer.Driver.clear_compile_cache ();
          match
            Sanitizer.Driver.run san ~backend
              ~fault:(Vm.Fault.of_specs
                        [ (match Vm.Fault.parse
                                   (Printf.sprintf "fuel:%d" budget)
                           with
                           | Ok s -> s
                           | Error m -> Alcotest.fail m) ])
              src
          with
          | r ->
            Printf.sprintf "exit %s"
              (Format.asprintf "%a" Vm.Machine.pp_outcome
                 r.Sanitizer.Driver.outcome)
          | exception Tir.Fuel.Exhausted { phase; budget } ->
            Printf.sprintf "fuel-exhausted %s %d" phase budget
        in
        (* a one-step budget dies in the front end on both backends; an
           ample one completes on both *)
        List.iter
          (fun budget ->
             Alcotest.(check string)
               (Printf.sprintf "budget %d" budget)
               (go Vm.Machine.Interp budget)
               (go Vm.Machine.Jit budget))
          [ 1; 10_000_000 ])
  ]

(* --- cache regressions ---------------------------------------------------- *)

let cache_tests =
  [
    Alcotest.test_case "repeated runs re-pay neither resolution nor \
                        jit compilation" `Quick (fun () ->
        let san = Cecsan.sanitizer () in
        let md =
          Sanitizer.Driver.build san
            "int main() { int *p = malloc(40); for (int i = 0; i < 10; \
             i++) p[i] = i; int s = p[7]; free(p); return s; }"
        in
        let r0 = !Vm.Vcode.resolutions and c0 = !Vm.Jit.compilations in
        ignore (Sanitizer.Driver.run_module san ~backend:Vm.Machine.Interp md);
        Alcotest.(check int) "first interp run resolves once"
          (r0 + 1) !Vm.Vcode.resolutions;
        ignore (Sanitizer.Driver.run_module san ~backend:Vm.Machine.Interp md);
        Alcotest.(check int) "second interp run hits the cache"
          (r0 + 1) !Vm.Vcode.resolutions;
        ignore (Sanitizer.Driver.run_module san ~backend:Vm.Machine.Jit md);
        Alcotest.(check int) "jit run reuses the resolved form"
          (r0 + 1) !Vm.Vcode.resolutions;
        Alcotest.(check int) "first jit run compiles once"
          (c0 + 1) !Vm.Jit.compilations;
        ignore (Sanitizer.Driver.run_module san ~backend:Vm.Machine.Jit md);
        Alcotest.(check int) "second jit run hits the compile cache"
          (c0 + 1) !Vm.Jit.compilations;
        ignore (Sanitizer.Driver.run_module san ~backend:Vm.Machine.Interp md);
        Alcotest.(check int) "backends share the cached resolution"
          (r0 + 1) !Vm.Vcode.resolutions);
    Alcotest.test_case "jit compile fuel burns identically on cache hit \
                        and miss" `Quick (fun () ->
        let san = Cecsan.sanitizer () in
        let md =
          Sanitizer.Driver.build san
            "int main() { int a[4]; a[1] = 3; return a[1]; }"
        in
        let vc = Vm.Vcode.resolve_cached md in
        let size = Tir.Ir.module_size md in
        let miss = Tir.Fuel.make ~phase:"compile" ~budget:(size + 7) in
        ignore (Vm.Jit.compile_cached ~fuel:miss vc);
        let hit = Tir.Fuel.make ~phase:"compile" ~budget:(size + 7) in
        ignore (Vm.Jit.compile_cached ~fuel:hit vc);
        Alcotest.(check int) "hit burned what the miss burned"
          (Tir.Fuel.remaining miss) (Tir.Fuel.remaining hit);
        Alcotest.(check int) "burn is the module size" 7
          (Tir.Fuel.remaining hit);
        (* and exhaustion below the burn is identical on a warm cache *)
        let starved = Tir.Fuel.make ~phase:"compile" ~budget:(size - 1) in
        (match Vm.Jit.compile_cached ~fuel:starved vc with
         | _ -> Alcotest.fail "expected fuel exhaustion on a warm cache"
         | exception Tir.Fuel.Exhausted { phase; _ } ->
           Alcotest.(check string) "phase" "compile" phase))
  ]

(* --- last-page cache through jitted code ----------------------------------- *)

(* The interpreter's page-cache audit (test_vm.ml) re-driven through
   the jit: free/realloc recycling between jitted blocks, and the
   fault-injected table shrink, must be stable and interp-identical. *)
let page_cache_tests =
  [
    Alcotest.test_case "free/realloc recycling between jitted blocks"
      `Quick (fun () ->
        let src =
          "int main() {\n\
          \  int sum = 0;\n\
          \  for (int i = 0; i < 24; i++) {\n\
          \    char *p = malloc(32 + i);\n\
          \    for (int k = 0; k < 32; k++) p[k] = k + i;\n\
          \    sum = sum + p[31];\n\
          \    if (i % 3 == 0) { p = realloc(p, 128); sum = sum + p[0]; }\n\
          \    free(p);\n\
          \  }\n\
          \  printf(\"S:%d\\n\", sum);\n\
          \  return sum & 63;\n\
           }\n"
        in
        let go backend =
          let r = Sanitizer.Driver.run (Cecsan.sanitizer ()) ~backend src in
          (Format.asprintf "%a" Vm.Machine.pp_outcome
             r.Sanitizer.Driver.outcome,
           r.Sanitizer.Driver.output, r.Sanitizer.Driver.cycles)
        in
        let oi, outi, ci = go Vm.Machine.Interp in
        let oj, outj, cj = go Vm.Machine.Jit in
        Alcotest.(check string) "outcome" oi oj;
        Alcotest.(check string) "output" outi outj;
        Alcotest.(check int) "cycles" ci cj);
    Alcotest.test_case "fault-injected table shrink is repeatable under \
                        the jit" `Quick (fun () ->
        let src =
          "int main() {\n\
          \  int sum = 0;\n\
          \  for (int i = 0; i < 24; i++) {\n\
          \    char *p = malloc(32 + i);\n\
          \    for (int k = 0; k < 32; k++) p[k] = k + i;\n\
          \    sum = sum + p[31];\n\
          \    if (i % 3 == 0) { p = realloc(p, 128); sum = sum + p[0]; }\n\
          \    free(p);\n\
          \  }\n\
          \  printf(\"S:%d\\n\", sum);\n\
          \  return sum & 63;\n\
           }\n"
        in
        let go backend =
          let fault =
            match Vm.Fault.parse "table:8" with
            | Ok s -> Vm.Fault.of_specs [ s ]
            | Error m -> Alcotest.fail m
          in
          let r =
            Sanitizer.Driver.run (Cecsan.sanitizer ()) ~fault ~backend
              ~policy:(Vm.Report.Recover
                         { max_reports = Vm.Report.default_max_reports })
              src
          in
          (Format.asprintf "%a" Vm.Machine.pp_outcome
             r.Sanitizer.Driver.outcome,
           r.Sanitizer.Driver.output)
        in
        let o1, out1 = go Vm.Machine.Jit and o2, out2 = go Vm.Machine.Jit in
        Alcotest.(check string) "jit outcome stable" o1 o2;
        Alcotest.(check string) "jit output stable" out1 out2;
        let oi, outi = go Vm.Machine.Interp in
        Alcotest.(check string) "matches interp outcome" oi o1;
        Alcotest.(check string) "matches interp output" outi out1)
  ]

(* --- the inlined Algorithm 1 check ------------------------------------- *)

(* 400 live 16-byte objects; [access] runs on the one whose metadata
   entry is [entry].  Entry 341's low bound is the last word of a page
   and its high bound the first word of the next (24 * 341 mod 4096 =
   4088), so the inlined check must fetch the two bounds separately. *)
let entry_src ~entry ~access =
  Printf.sprintf
    "int main() {\n\
    \  char **objs = (char**)malloc(400 * sizeof(char*));\n\
    \  for (int i = 0; i < 400; i++) objs[i] = (char*)malloc(16);\n\
    \  int k = -1;\n\
    \  for (int i = 0; i < 400; i++)\n\
    \    if ((((long)objs[i]) >> 46) == %d) k = i;\n\
    \  if (k < 0) return 100;\n\
    \  char *p = objs[k];\n\
    \  %s\n\
     }\n"
    entry access

(* access, the finding it must produce (none: a clean exit with the
   value it stored) *)
let entry_accesses =
  [ ("p[3] = 7; return p[3];", None);
    ("p[15] = 9; return p[15];", None);
    ("p[16] = 1; return p[16];", Some "out-of-bounds");
    ("p[2] = 5; free(p); return p[2];", Some "use-after-free") ]

let contains ~affix s =
  let n = String.length affix in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = affix || go (i + 1))
  in
  go 0

let recover = Vm.Report.Recover { max_reports = Vm.Report.default_max_reports }

let inline_check_tests =
  [
    Alcotest.test_case "entries 340-342: bounds on two pages, both backends"
      `Quick (fun () ->
        let san = Cecsan.sanitizer () in
        List.iter
          (fun entry ->
             List.iter
               (fun (access, finding) ->
                  let md =
                    Sanitizer.Driver.build san (entry_src ~entry ~access)
                  in
                  List.iter
                    (fun policy ->
                       let ctx = Printf.sprintf "entry %d, %s" entry access in
                       let interp = run_obs ~policy Vm.Machine.Interp san md in
                       let jit = run_obs ~policy Vm.Machine.Jit san md in
                       ignore (agree ~ctx interp jit : bool);
                       match interp, finding with
                       | Completed o, None ->
                         Alcotest.(check (list string)) (ctx ^ ": no report")
                           [] o.o_reports;
                         Alcotest.(check bool) (ctx ^ ": clean exit") true
                           (String.starts_with ~prefix:"exit " o.o_outcome
                            && not (String.equal o.o_outcome "exit 100"))
                       | Completed o, Some kind ->
                         let found =
                           List.exists
                             (fun r ->
                                contains ~affix:kind r
                                && contains
                                     ~affix:(Printf.sprintf "entry %d" entry) r)
                             (o.o_outcome :: o.o_reports)
                         in
                         Alcotest.(check bool) (ctx ^ ": " ^ kind) true found
                       | _ -> Alcotest.fail (ctx ^ ": " ^ describe interp))
                    [ Vm.Report.Halt; recover ])
               entry_accesses)
          [ 340; 341; 342 ]);
    Alcotest.test_case "a stub registered over a check after fresh_runtime \
                        is what the jit calls" `Quick (fun () ->
        (* the e2e execution split times exactly this: a runtime whose
           check name is rebound before [Machine.create] must leave the
           inline path *)
        let san = Cecsan.sanitizer () in
        let md =
          Sanitizer.Driver.build san
            (entry_src ~entry:5 ~access:"p[3] = 7; return p[3];")
        in
        let calls = ref 0 in
        let stubbed =
          { san with
            Sanitizer.Spec.fresh_runtime =
              (fun () ->
                 let rt = san.Sanitizer.Spec.fresh_runtime () in
                 Vm.Runtime.register rt "__cecsan_check_load" (fun st a ->
                     incr calls;
                     Vm.State.tick st Cecsan.Costs.check;
                     Vm.Layout46.strip a.(0));
                 rt) }
        in
        let run s backend = Sanitizer.Driver.run_module s ~backend md in
        let full = run san Vm.Machine.Jit in
        let jit = run stubbed Vm.Machine.Jit in
        let jit_calls = !calls in
        calls := 0;
        let interp = run stubbed Vm.Machine.Interp in
        Alcotest.(check bool) "the stub ran" true (jit_calls > 0);
        Alcotest.(check int) "as often as on the interpreter" !calls jit_calls;
        Alcotest.(check int) "stub cycles equal the full run's"
          full.Sanitizer.Driver.cycles jit.Sanitizer.Driver.cycles;
        Alcotest.(check int) "and the interpreter's"
          interp.Sanitizer.Driver.cycles jit.Sanitizer.Driver.cycles);
  ]

(* --- copy forwarding and the memory path ---------------------------------- *)

(* One module on both backends, every observable compared; returns the
   jit's run and how many moves its compilation forwarded.  The module
   must be fresh (never run before), so that the jit compiles it here. *)
let both ~ctx md =
  let f0 = !Vm.Jit.forwarded_moves in
  let go backend =
    let r =
      Sanitizer.Driver.run_module Sanitizer.Spec.none ~backend md
    in
    (observe r, r.Sanitizer.Driver.resident,
     r.Sanitizer.Driver.program_resident)
  in
  let (i, i_res, i_prog) = go Vm.Machine.Interp in
  let (j, j_res, j_prog) = go Vm.Machine.Jit in
  let fwd = !Vm.Jit.forwarded_moves - f0 in
  Alcotest.(check string) (ctx ^ ": outcome") i.o_outcome j.o_outcome;
  Alcotest.(check int) (ctx ^ ": cycles") i.o_cycles j.o_cycles;
  Alcotest.(check string) (ctx ^ ": output") i.o_output j.o_output;
  Alcotest.(check string) (ctx ^ ": telemetry") i.o_snapshot j.o_snapshot;
  Alcotest.(check int) (ctx ^ ": resident") i_res j_res;
  Alcotest.(check int) (ctx ^ ": program resident") i_prog j_prog;
  (j, j_res, j_prog, fwd)

(* A module whose [main] is the given blocks over [nregs] registers.
   [main] keeps the stack slot of the stub it replaces (a 32-byte char
   array), whose id the block builder receives. *)
let hand ~nregs (blocks : int -> (Tir.Ir.instr list * Tir.Ir.term) array) =
  let md =
    Tir.Ir.clone
      (Sanitizer.Driver.build Sanitizer.Spec.none
         "int main() { char b[32]; b[1] = 2; return b[1]; }")
  in
  let f = Option.get (Tir.Ir.find_func md "main") in
  let slot = (List.hd f.Tir.Ir.f_slots).Tir.Ir.s_id in
  f.Tir.Ir.f_nregs <- nregs;
  f.Tir.Ir.f_blocks <-
    Array.mapi
      (fun i (instrs, term) ->
         { Tir.Ir.b_id = i; b_instrs = instrs; b_term = term })
      (blocks slot);
  md

let exits ~ctx expected (o : obs) =
  Alcotest.(check string) (ctx ^ ": exit") (Printf.sprintf "exit %d" expected)
    o.o_outcome

module I = struct
  include Tir.Ir
  let r x = Reg x
  let i v = Imm v
  let add dst a b = Ibin { op = Add; dst; a; b }
  let mov dst src = Imov { dst; src }
  let lt dst a b = Icmp { op = Lt; dst; a; b }
  let ret o = Tret (Some o)
  let ld ?(signed = false) dst addr size =
    Iload { dst; addr; size; signed; safe = false }
  let st addr src size = Istore { addr; src; size; safe = false }
end

(* name, registers, blocks, exit code, forwarded moves *)
let forwarding_cases =
  let open I in
  [ ("a copy read by Tret", 2,
     [| ([ add 0 (i 40) (i 2); mov 1 (r 0) ], ret (r 1)) |], 42, 1);
    ("a copy read by Tcbr", 2,
     [| ([ add 0 (i 0) (i 1); mov 1 (r 0) ], Tcbr (r 1, 1, 2));
        ([], ret (i 10)); ([], ret (i 20)) |], 10, 1);
    ("a copy read by a compare and its branch", 4,
     [| ([ add 0 (i 2) (i 1); mov 1 (r 0); lt 2 (r 1) (i 5); mov 3 (r 2) ],
         Tcbr (r 3, 1, 2));
        ([], ret (i 10)); ([], ret (i 20)) |], 10, 2);
    ("an immediate copy", 3,
     [| ([ mov 1 (i 6); add 2 (r 1) (r 1) ], ret (r 2)) |], 12, 1);
    (* r1 is read at the top of the loop body, before the move: the
       read sees the previous iteration's copy (0, 1, 2, 3, 4) *)
    ("a self-loop block reads the copy before the move", 5,
     [| ([], Tbr 1);
        ([ add 0 (r 0) (i 1); add 2 (r 2) (r 1); mov 1 (r 0);
           lt 4 (r 0) (i 5) ], Tcbr (r 4, 1, 2));
        ([], ret (r 2)) |], 10, 0);
    ("a copy read in another block", 2,
     [| ([ add 0 (i 0) (i 5); mov 1 (r 0); add 0 (r 0) (i 1) ], Tbr 1);
        ([], ret (r 1)) |], 5, 0);
    ("a copy defined twice", 2,
     [| ([ add 0 (i 0) (i 5); mov 1 (r 0); add 1 (i 0) (i 9) ], ret (r 1)) |],
     9, 0);
    ("the source redefined before the copy's last read", 3,
     [| ([ add 0 (i 0) (i 3); mov 1 (r 0); add 0 (r 1) (i 1);
           add 2 (r 1) (r 0) ], ret (r 2)) |], 7, 0);
    ("the source redefined by the copy's last reader", 2,
     [| ([ add 0 (i 0) (i 3); mov 1 (r 0); add 0 (r 1) (i 1) ], ret (r 0)) |],
     4, 1);
    ("a chain resolves against its source", 4,
     [| ([ add 0 (i 0) (i 3); mov 1 (r 0); mov 2 (r 1); add 3 (r 2) (r 1);
           add 0 (r 3) (r 2) ], ret (r 0)) |], 9, 2);
    (* r1 forwards to r0, whose redefinition at position 3 then bounds
       r2 = r1 as well: r2 must not forward *)
    ("a chain carries its source's redefinition", 3,
     [| ([ add 0 (i 0) (i 3); mov 1 (r 0); mov 2 (r 1); add 0 (i 0) (i 50) ],
         ret (r 2)) |], 3, 1) ]

(* Forwarded moves over the 16 SPEC kernels under none and CECSan, each
   compiled once: the count that shows forwarding is on. *)
let kernel_forwarded_moves = 2113

let forwarding_tests =
  List.map
    (fun (name, nregs, blocks, code, nfwd) ->
       Alcotest.test_case name `Quick (fun () ->
           let md = hand ~nregs (fun _ -> blocks) in
           let o, _, _, fwd = both ~ctx:name md in
           exits ~ctx:name code o;
           Alcotest.(check int) (name ^ ": forwarded moves") nfwd fwd))
    forwarding_cases
  @ [
    Alcotest.test_case "a source redefined after a post-increment copy"
      `Quick (fun () ->
          (* y = x++ copies x, then redefines it while the copy is
             still to be read: forwarding the copy would exit 61 *)
          let md =
            Sanitizer.Driver.build Sanitizer.Spec.none
              "int main(){ int x = 3; int y = x++; int z = x; x = x + 1; \
               return y*100 + z*10 + x; }"
          in
          let o, _, _, _ = both ~ctx:"x++" md in
          exits ~ctx:"x++" 345 o);
    Alcotest.test_case "forwarded moves over the SPEC kernels are pinned"
      `Quick (fun () ->
          let f0 = !Vm.Jit.forwarded_moves in
          List.iter
            (fun (w : Workloads.Spec2006.t) ->
               List.iter
                 (fun san ->
                    let md = Sanitizer.Driver.build san w.w_source in
                    ignore (Vm.Jit.compile (Vm.Vcode.resolve md)))
                 [ Sanitizer.Spec.none; Cecsan.sanitizer () ])
            (Workloads.Spec2006.all @ Workloads.Spec2017.all);
          Alcotest.(check int) "forwarded moves" kernel_forwarded_moves
            (!Vm.Jit.forwarded_moves - f0));
  ]

(* Word accesses against the memory's 63-bit little-endian layout, at
   page offsets 4094/4095 where 2/4/8-byte accesses straddle two pages,
   and over more pages than the page cache has entries.  Values and
   residency are pinned. *)
let memory_path_tests =
  let open I in
  (* r0 = a page-aligned heap address with two pages behind it *)
  let heap_page =
    [ Icall { dst = Some 0; callee = "malloc"; args = [ i 12288 ] };
      add 0 (r 0) (i 4095);
      Ibin { op = And; dst = 0; a = r 0; b = i (-4096) } ]
  in
  let case name blocks expected ~resident ~program =
    Alcotest.test_case name `Quick (fun () ->
        let md = hand ~nregs:4 blocks in
        let o, res, prog, _ = both ~ctx:name md in
        exits ~ctx:name expected o;
        Alcotest.(check int) (name ^ ": resident") resident res;
        Alcotest.(check int) (name ^ ": program resident") program prog)
  in
  let straddle size off v expected =
    case (Printf.sprintf "%d-byte access at page offset %d" size off)
      (fun _ ->
         [| (heap_page
             @ [ add 1 (r 0) (i off); st (r 1) (i v) size;
                 ld 2 (r 1) size; add 3 (r 1) (i 1); ld 3 (r 3) 1;
                 (* the value and its second byte, which may sit on the
                    next page *)
                 Ibin { op = Shl; dst = 3; a = r 3; b = i 56 };
                 Ibin { op = Xor; dst = 2; a = r 2; b = r 3 } ],
             ret (r 2)) |])
      expected
  in
  [ case "store.1 0xFF into byte 7, then load.8"
      (fun slot ->
         [| ([ Islot { dst = 0; slot }; st (r 0) (i 0x0102030405060708) 8;
               add 1 (r 0) (i 7); st (r 1) (i 0xFF) 1; ld 2 (r 0) 8 ],
             ret (r 2)) |])
      0x7F02030405060708 ~resident:4096 ~program:4096;
    case "negative store.8, then load.1 of byte 7"
      (fun slot ->
         [| ([ Islot { dst = 0; slot }; st (r 0) (i (-1)) 8;
               add 1 (r 0) (i 7); ld ~signed:true 2 (r 1) 1 ],
             ret (r 2)) |])
      0x7F ~resident:4096 ~program:4096;
    (* byte 7 holds bits 56..62, so a 63-bit word round-trips *)
    case "negative store.8, then load.8"
      (fun slot ->
         [| ([ Islot { dst = 0; slot }; st (r 0) (i (-2)) 8; ld 2 (r 0) 8 ],
             ret (r 2)) |])
      (-2) ~resident:4096 ~program:4096;
    straddle 2 4094 0xBEEF (0xBEEF lxor (0xBE lsl 56))
      ~resident:8192 ~program:8192;
    straddle 2 4095 0xBEEF (0xBEEF lxor (0xBE lsl 56))
      ~resident:12288 ~program:12288;
    straddle 4 4094 0xDEADBEEF (0xDEADBEEF lxor (0xBE lsl 56))
      ~resident:12288 ~program:12288;
    straddle 4 4095 0xDEADBEEF (0xDEADBEEF lxor (0xBE lsl 56))
      ~resident:12288 ~program:12288;
    straddle 8 4094 0x0123456789ABCDEF (0x0123456789ABCDEF lxor (0xCD lsl 56))
      ~resident:12288 ~program:12288;
    straddle 8 4095 0x0123456789ABCDEF (0x0123456789ABCDEF lxor (0xCD lsl 56))
      ~resident:12288 ~program:12288;
    (* byte 7 holds bits 56..62 whether or not the word straddles *)
    case "negative store.8 across pages, then load.1 of byte 7"
      (fun _ ->
         [| (heap_page
             @ [ add 1 (r 0) (i 4092); st (r 1) (i (-1)) 8;
                 add 2 (r 1) (i 7); ld 2 (r 2) 1 ],
             ret (r 2)) |])
      0x7F ~resident:12288 ~program:12288;
    case "negative store.8 across pages, then load.8"
      (fun _ ->
         [| (heap_page
             @ [ add 1 (r 0) (i 4092); st (r 1) (i (-1)) 8; ld 2 (r 1) 8 ],
             ret (r 2)) |])
      (-1) ~resident:12288 ~program:12288;
    Alcotest.test_case "alternating pages that share a page-cache entry"
      `Quick (fun () ->
          (* every pair of 130 pages, more than the cache's 128 entries,
             so some pairs collide on one entry *)
          let md =
            Sanitizer.Driver.build Sanitizer.Spec.none
              "int main() {\n\
              \  char *p = malloc(130 * 4096);\n\
              \  int s = 0;\n\
              \  for (int i = 0; i < 130; i++)\n\
              \    for (int j = i + 1; j < 130; j++) {\n\
              \      p[i * 4096 + (j & 7)] = i;\n\
              \      p[j * 4096 + (i & 7)] = j;\n\
              \      s = s + p[i * 4096 + (j & 7)] - p[j * 4096 + (i & 7)];\n\
              \    }\n\
              \  free(p);\n\
              \  return s;\n\
               }"
          in
          let o, res, prog, _ = both ~ctx:"pairs" md in
          exits ~ctx:"pairs" (-300609) o;
          Alcotest.(check int) "resident" 532480 res;
          Alcotest.(check int) "program resident" 532480 prog) ]

(* --- operators ---------------------------------------------------------- *)

(* Every operator on both backends, each operand shape (register or
   immediate on either side), over edge values.  A module folds the
   results of all its pairs into r3, so a result that differs on one
   backend changes the exit code. *)

let edges = [ 0; 1; -1; min_int; max_int ]
let shift_counts = [ 0; 62; 63; 64; -1 ]

let shapes = [ "RR"; "RI"; "IR"; "II" ]

(* the operands of [x op y] in a shape, once r0 = x and r1 = y *)
let operands shape x y =
  let open I in
  match shape with
  | "RR" -> (r 0, r 1)
  | "RI" -> (r 0, i y)
  | "IR" -> (i x, r 1)
  | _ -> (i x, i y)

(* r0 and r1 are defined again for every pair, and the prelude defines
   them too, so no move forwards and each shape reaches the jit as
   written *)
let prelude = I.[ mov 0 (i 0); mov 1 (i 0); mov 3 (i 0) ]
let load_pair x y = I.[ mov 0 (i x); mov 1 (i y) ]

(* r3 = (r3 * 1000003) lxor r2: one-to-one in r2 *)
let fold =
  I.[ Ibin { op = Mul; dst = 3; a = r 3; b = i 1000003 };
      Ibin { op = Xor; dst = 3; a = r 3; b = r 2 } ]

let pairs ys = List.concat_map (fun x -> List.map (fun y -> (x, y)) ys) edges

let binops =
  let open Tir.Ir in
  [ ("add", Add); ("sub", Sub); ("mul", Mul); ("div", Div); ("mod", Mod);
    ("shl", Shl); ("shr", Shr); ("and", And); ("or", Or); ("xor", Xor) ]

let cmpops =
  let open Tir.Ir in
  [ ("eq", Eq); ("ne", Ne); ("lt", Lt); ("le", Le); ("gt", Gt); ("ge", Ge) ]

let completes ~ctx (o : obs) =
  Alcotest.(check bool) (ctx ^ ": exits (" ^ o.o_outcome ^ ")") true
    (String.starts_with ~prefix:"exit " o.o_outcome)

let binop_tests =
  List.map
    (fun (name, op) ->
       Alcotest.test_case name `Quick (fun () ->
           let ys =
             match op with
             | Tir.Ir.Shl | Shr -> shift_counts
             | Div | Mod -> List.filter (fun y -> y <> 0) edges
             | _ -> edges
           in
           List.iter
             (fun shape ->
                let ctx = name ^ " " ^ shape in
                let body =
                  List.concat_map
                    (fun (x, y) ->
                       let a, b = operands shape x y in
                       load_pair x y
                       @ (Tir.Ir.Ibin { op; dst = 2; a; b } :: fold))
                    (pairs ys)
                in
                let md =
                  hand ~nregs:4 (fun _ ->
                      [| (prelude @ body, I.ret (I.r 3)) |])
                in
                let o, _, _, _ = both ~ctx md in
                completes ~ctx o)
             shapes))
    binops
  @ [ Alcotest.test_case "div and mod by zero" `Quick (fun () ->
        List.iter
          (fun (name, op) ->
             List.iter
               (fun shape ->
                  List.iter
                    (fun x ->
                       let ctx = Printf.sprintf "%s %s %d/0" name shape x in
                       let a, b = operands shape x 0 in
                       let md =
                         hand ~nregs:4 (fun _ ->
                             [| (prelude @ load_pair x 0
                                 @ [ Tir.Ir.Ibin { op; dst = 2; a; b } ],
                                 I.ret (I.r 2)) |])
                       in
                       let o, _, _, _ = both ~ctx md in
                       Alcotest.(check string) ctx "FAULT SIGFPE at 0x0"
                         o.o_outcome)
                    edges)
               shapes)
          [ ("div", Tir.Ir.Div); ("mod", Tir.Ir.Mod) ]) ]

(* Each compare unfused, then feeding the block's branch, where the jit
   fuses it: the taken side adds 7, and both sides fold the compare's
   register. *)
let cmp_tests =
  List.map
    (fun (name, op) ->
       Alcotest.test_case name `Quick (fun () ->
           let ps = pairs edges in
           List.iter
             (fun shape ->
                let cmp x y =
                  let a, b = operands shape x y in
                  Tir.Ir.Icmp { op; dst = 2; a; b }
                in
                let ctx = name ^ " " ^ shape in
                let unfused =
                  List.concat_map
                    (fun (x, y) -> load_pair x y @ (cmp x y :: fold))
                    ps
                in
                let o, _, _, _ =
                  both ~ctx
                    (hand ~nregs:4 (fun _ ->
                         [| (prelude @ unfused, I.ret (I.r 3)) |]))
                in
                completes ~ctx o;
                let fused =
                  List.concat
                    (List.mapi
                       (fun k (x, y) ->
                          let b = 1 + (3 * k) in
                          [ (load_pair x y @ [ cmp x y ],
                             Tir.Ir.Tcbr (I.r 2, b + 1, b + 2));
                            (fold @ [ I.add 3 (I.r 3) (I.i 7) ],
                             Tir.Ir.Tbr (b + 3));
                            (fold, Tir.Ir.Tbr (b + 3)) ])
                       ps)
                in
                let blocks =
                  Array.of_list
                    (((prelude, Tir.Ir.Tbr 1) :: fused)
                     @ [ ([], I.ret (I.r 3)) ])
                in
                let ctx = ctx ^ " fused" in
                let o, _, _, _ = both ~ctx (hand ~nregs:4 (fun _ -> blocks)) in
                completes ~ctx o)
             shapes))
    cmpops

(* A module that names a register, slot or block outside a function's
   frame or body is rejected with a classified fault naming the
   function, identically on both backends and before anything runs. *)
let out_of_frame_tests =
  let open I in
  let case name trap ?(blocks = [||]) ?(slot_id = Fun.id) instrs term =
    Alcotest.test_case name `Quick (fun () ->
        let md =
          hand ~nregs:2 (fun slot ->
              Array.append [| (instrs slot, term) |] blocks)
        in
        let f = Option.get (Tir.Ir.find_func md "main") in
        f.f_slots <- List.map (fun s -> { s with s_id = slot_id s.s_id })
            f.f_slots;
        let go backend =
          let st = Vm.State.create () in
          let rt = Sanitizer.Spec.none.Sanitizer.Spec.fresh_runtime () in
          let m = Vm.Machine.create ~st ~rt md in
          match Vm.Machine.run ~backend m with
          | o ->
            (Format.asprintf "%a" Vm.Machine.pp_outcome o, st.Vm.State.cycles)
          | exception e ->
            ("raised " ^ Printexc.to_string e, st.Vm.State.cycles)
        in
        let ei, ci = go Vm.Machine.Interp in
        let ej, cj = go Vm.Machine.Jit in
        Alcotest.(check string) (name ^ ": interp")
          ("FAULT " ^ trap ^ " of main at 0x0") ei;
        Alcotest.(check string) (name ^ ": jit") ei ej;
        Alcotest.(check (pair int int)) (name ^ ": cycles") (0, 0) (ci, cj))
  in
  let reg r = Printf.sprintf "register r%d outside the 2-register frame" r in
  [ case "a destination outside the frame" (reg 5)
      (fun _ -> [ add 0 (i 1) (i 2); add 5 (r 0) (i 1) ])
      (ret (r 0));
    case "an operand outside the frame" (reg 5)
      (fun _ -> [ add 0 (i 1) (i 2); add 1 (r 5) (r 0) ])
      (ret (r 1));
    case "a compare operand outside the frame, feeding the branch" (reg 5)
      (fun _ -> [ add 0 (i 1) (i 2); lt 1 (r 0) (r 5) ]) (Tcbr (r 1, 0, 0));
    case "a negative register in the terminator" (reg (-1))
      (fun _ -> [ add 0 (i 1) (i 2) ]) (ret (r (-1)));
    case "a branch target outside the body"
      "branch target b3 outside the 2-block body"
      ~blocks:[| ([], ret (i 0)) |]
      (fun _ -> [ add 0 (i 1) (i 2); lt 1 (r 0) (i 9) ]) (Tcbr (r 1, 3, 1));
    case "a negative jump target" "branch target b-1 outside the 1-block body"
      (fun _ -> [ add 0 (i 1) (i 2) ]) (Tbr (-1));
    case "a slot outside the frame" "slot s4 outside the 1-slot frame"
      (fun slot -> [ Islot { dst = 0; slot }; Islot { dst = 1; slot = 4 } ])
      (ret (r 0));
    case "a slot declared outside the frame" "slot s7 outside the 1-slot frame"
      ~slot_id:(fun _ -> 7) (fun _ -> [ add 0 (i 1) (i 2) ]) (ret (r 0)) ]

let intrinsic_tests =
  let open I in
  [ Alcotest.test_case "an intrinsic no runtime registers traps at the call"
      `Quick (fun () ->
          let md =
            hand ~nregs:2 (fun _ ->
                [| ([ add 0 (i 1) (i 2);
                      Iintrin { dst = Some 1; name = "__nobody_check";
                                args = [ r 0 ]; site = 0 };
                      add 0 (r 0) (i 1) ],
                    ret (r 0)) |])
          in
          let o, _, _, _ = both ~ctx:"unbound slot" md in
          Alcotest.(check string) "outcome"
            "FAULT unresolved external intrinsic __nobody_check at 0x0"
            o.o_outcome) ]

let () =
  Alcotest.run "jit"
    [
      "differential", differential_tests;
      "caches", cache_tests;
      "page cache", page_cache_tests;
      "inline check", inline_check_tests;
      "forwarding", forwarding_tests;
      "memory path", memory_path_tests;
      "binops", binop_tests;
      "compares", cmp_tests;
      "out of frame", out_of_frame_tests;
      "intrinsics", intrinsic_tests;
    ]
