(* cecsan_cli: the `clang -fsanitize=` analog for the simulated stack.

   Compile a MiniC source file, instrument it with a chosen sanitizer,
   and run it on the VM:

     dune exec bin/cecsan_cli.exe -- program.c
     dune exec bin/cecsan_cli.exe -- program.c -s asan --stats
     dune exec bin/cecsan_cli.exe -- program.c --dump-ir
     dune exec bin/cecsan_cli.exe -- program.c --stdin "line1" --packet "B"
*)

open Cmdliner

let file =
  Arg.(required & pos 0 (some file) None
       & info [] ~docv:"FILE" ~doc:"MiniC source file to compile and run.")

let sanitizer =
  let keys = Baselines.Tools.(keys all) in
  Arg.(value & opt (Harness.Cli.one_of keys) "cecsan"
       & info [ "s"; "sanitizer" ] ~docv:"NAME"
           ~doc:("Sanitizer: " ^ String.concat ", " keys ^ "."))

let stdin_lines =
  Arg.(value & opt_all string []
       & info [ "stdin" ] ~docv:"LINE"
           ~doc:"Line served to fgets/getchar by the dummy input server \
                 (repeatable).")

let packets =
  Arg.(value & opt_all string []
       & info [ "packet" ] ~docv:"DATA"
           ~doc:"Packet served to recv by the dummy input server \
                 (repeatable).")

let dump_ir =
  Arg.(value & flag
       & info [ "dump-ir" ]
           ~doc:"Print the instrumented IR instead of running.")

let dump_tir =
  Arg.(value
       & opt (some (enum [ ("preopt", `Preopt); ("postopt", `Postopt) ]))
           None
       & info [ "dump-tir" ] ~docv:"STAGE"
           ~doc:"Print the instrumented Tir at STAGE ($(b,preopt): before \
                 the check optimizations, $(b,postopt): after them) \
                 instead of running.")

let verify =
  Arg.(value & flag
       & info [ "verify" ]
           ~doc:"Static check only: instrument, run the Tir.Verify \
                 IR/coverage verifier before and after the check \
                 optimizations, print the report and exit (0 verified, \
                 4 rejected) without executing the program.")

let dump_absint =
  Arg.(value & flag
       & info [ "dump-absint" ]
           ~doc:"Print the whole-program abstract-interpretation summary \
                 (per-function abstract objects, per-site register \
                 states, proved facts) over the fully optimized IR \
                 instead of running -- the exact state Tir.Verify \
                 replays elision witnesses against.  Requires a \
                 sanitizer with certified elision (cecsan, asan--).")

let stats =
  Arg.(value & flag
       & info [ "stats" ] ~doc:"Print cycle and memory statistics.")

let profile =
  Arg.(value & flag
       & info [ "profile" ]
           ~doc:"After the run, print the top-10 hottest check sites \
                 (executed / elided / grouped counts with IR origins).")

let no_opt =
  Arg.(value & flag
       & info [ "O0" ] ~doc:"Disable the -O2 model (slot promotion).")

let budget =
  Arg.(value & opt Harness.Cli.nonneg_int Vm.State.default_budget
       & info [ "budget" ] ~docv:"CYCLES" ~doc:"Cycle budget for the run.")

let recover =
  Arg.(value & flag
       & info [ "recover" ]
           ~doc:"Keep running past failed checks: findings are recorded \
                 (deduplicated, capped) and reported at exit instead of \
                 halting the program.")

let max_reports =
  Arg.(value & opt (some Harness.Cli.nonneg_int) None
       & info [ "max-reports" ] ~docv:"N"
           ~doc:"Cap on recorded findings under $(b,--recover) (default \
                 64); further findings are counted as suppressed.  \
                 Implies $(b,--recover).")

let inject =
  Arg.(value & opt_all Harness.Cli.fault_spec []
       & info [ "inject" ] ~docv:"SPEC"
           ~doc:"Inject a deterministic fault (repeatable): $(b,oom:N) \
                 makes malloc return NULL after N allocations, \
                 $(b,table:N) shrinks the metadata table to N entries, \
                 $(b,tagflip:N) flips a tag bit on every N-th tagged \
                 load, $(b,crash:N) kills the task after N allocations \
                 (exit 97), $(b,fuel:N) gives the compile/verify \
                 pipeline an N-step budget (exit 5).")

let fuel_budget =
  Arg.(value & opt (some Harness.Cli.nonneg_int) None
       & info [ "fuel" ] ~docv:"STEPS"
           ~doc:"Deterministic step budget for the compile/verify \
                 pipeline (a seeded stand-in for a wall-clock timeout); \
                 exhausting it prints ==FUEL== and exits 5.")

(* The one front-end failure handler: every mode compiles through it,
   and each failure class has its own exit code. *)
let front_end src_file (san : Sanitizer.Spec.t) f =
  match f () with
  | r -> r
  | exception Minic.Sema.Error (m, l) ->
    Fmt.epr "%s:%d: error: %s@." src_file l m;
    exit 2
  | exception Tir.Lower.Error m ->
    Fmt.epr "%s: lowering error: %s@." src_file m;
    exit 2
  | exception Sanitizer.Spec.Unsupported m ->
    Fmt.epr "%s: %s cannot compile this program: %s@." src_file
      san.Sanitizer.Spec.name m;
    exit 3
  | exception Tir.Fuel.Exhausted { phase; budget } ->
    Fmt.epr "==FUEL== exhausted in %s (budget %d steps)@." phase budget;
    exit 5

let run_cmd tool src_file lines packets dump_ir dump_tir
    verify dump_absint stats profile telemetry_json no_opt budget recover
    max_reports inject fuel_budget backend =
  let san = Option.get (Baselines.Tools.make tool) in
  let src = In_channel.with_open_bin src_file In_channel.input_all in
  let fuel =
    Option.map (fun b -> Tir.Fuel.make ~phase:"compile" ~budget:b) fuel_budget
  in
  let front_end f = front_end src_file san f in
  let compile () =
    Sanitizer.Driver.compile_cached ~optimize:(not no_opt) ?fuel src
  in
  let name = san.Sanitizer.Spec.name in
  (* The static modes stop short of running the program.  The dumps
     drive the phases by hand, without the verifier; --verify goes
     through the Driver's gate and prints the reports it accepted. *)
  let instrumented ~optimize =
    front_end (fun () ->
        let md = compile () in
        san.Sanitizer.Spec.instrument md;
        if optimize then san.Sanitizer.Spec.optimize md;
        md)
  in
  if dump_absint then begin
    let md = instrumented ~optimize:true in
    match
      Option.bind san.Sanitizer.Spec.verify (fun spec ->
          Tir.Verify.absint_ctx spec md)
    with
    | Some cx ->
      Tir.Ir.iter_funcs md (fun f ->
          if not f.Tir.Ir.f_external then
            Fmt.pr "%a@." Tir.Absint.pp_summary
              (Tir.Absint.analyze ?fuel cx f));
      exit 0
    | None ->
      Fmt.epr "--dump-absint: %s has no certified elision@." name;
      exit 3
  end;
  Option.iter
    (fun stage ->
       print_string
         (Tir.Pp.module_to_string
            (instrumented ~optimize:(stage = `Postopt)));
       exit 0)
    dump_tir;
  if verify then begin
    match
      front_end (fun () ->
          Sanitizer.Driver.instrument_verified ?fuel san (compile ()))
    with
    | exception Sanitizer.Driver.Verifier_reject { stage; errors; _ } ->
      List.iter (fun e -> Fmt.pr "[verify] %s: %s@." stage e) errors;
      Fmt.epr "==VERIFY== %s: rejected@." name;
      exit 4
    | pre, post ->
      let report stage (r : Tir.Verify.report) =
        Fmt.pr "[verify] %s/%s: %d function(s), %d/%d unsafe accesses \
                covered, %d witness(es) replayed@."
          name stage r.Tir.Verify.r_funcs r.Tir.Verify.r_covered
          r.Tir.Verify.r_accesses r.Tir.Verify.r_witnesses
      in
      report "preopt" pre;
      report "postopt" post;
      Fmt.pr "[verify] %s: verified@." name;
      exit 0
  end;
  let policy =
    if recover || max_reports <> None then
      Vm.Report.Recover
        { max_reports =
            (match max_reports with
             | Some n -> n
             | None -> Vm.Report.default_max_reports) }
    else Vm.Report.Halt
  in
  let fault = Vm.Fault.of_specs inject in
  (* --inject fuel:N without --fuel still reaches the pipeline *)
  let fuel = Sanitizer.Driver.pipeline_fuel ?fuel (Some fault) in
  let md =
    front_end (fun () ->
        Sanitizer.Driver.build san ~optimize:(not no_opt) ?fuel src)
  in
  if dump_ir then begin
    print_string (Tir.Pp.module_to_string md);
    exit 0
  end;
  let r =
    match
      Sanitizer.Driver.run_module san ~lines ~packets ~budget ~policy
        ~fault ?backend md
    with
    | r -> r
    | exception Vm.Fault.Injected_crash { after } ->
      Fmt.epr "==INJECTED-CRASH== task killed after %d allocations@."
        after;
      exit 97
  in
  print_string r.Sanitizer.Driver.output;
  if not (String.equal r.Sanitizer.Driver.output "") then print_newline ();
  Option.iter
    (fun path -> Harness.Cli.write_snapshot ~path r.Sanitizer.Driver.snapshot)
    telemetry_json;
  let print_stats c =
    if stats then begin
      Fmt.pr "[%s] exit %d, %d cycles, %d bytes resident@."
        name c r.Sanitizer.Driver.cycles
        r.Sanitizer.Driver.resident;
      List.iter (fun (k, v) -> Fmt.pr "[stat] %s = %d@." k v)
        r.Sanitizer.Driver.snapshot.Telemetry.Snapshot.gauges
    end;
    if profile then begin
      Fmt.pr "[%s] hottest check sites@." name;
      let label site =
        List.assoc_opt site r.Sanitizer.Driver.site_labels
      in
      Telemetry.Snapshot.report ~top:10 ~label Format.std_formatter
        r.Sanitizer.Driver.snapshot
    end
  in
  (match r.Sanitizer.Driver.outcome with
   | Vm.Machine.Exit c ->
     print_stats c;
     exit (c land 0x7f)
   | Vm.Machine.Completed_with_bugs { code; reports; suppressed } ->
     List.iter (fun b -> Fmt.epr "==RECOVERED== %a@." Vm.Report.pp b)
       reports;
     Fmt.epr "==SUMMARY== %d finding(s) recorded, %d suppressed@."
       (List.length reports) suppressed;
     print_stats code;
     (* recover mode preserves the program's own exit code *)
     exit (code land 0x7f)
   | Vm.Machine.Bug b ->
     Fmt.epr "==ERROR== %a@." Vm.Report.pp b;
     exit 99
   | Vm.Machine.Fault t ->
     Fmt.epr "==CRASH== %a@." Vm.Report.pp_trap t;
     exit 98)

let cmd =
  let doc = "compile and run a MiniC program under a memory-safety \
             sanitizer (CECSan reproduction)" in
  Cmd.v
    (Cmd.info "cecsan_cli" ~version:"1.0" ~doc)
    Term.(const run_cmd $ sanitizer $ file $ stdin_lines $ packets
          $ dump_ir $ dump_tir $ verify $ dump_absint $ stats $ profile
          $ Harness.Cli.telemetry_json
              ~doc:"Write the run's telemetry snapshot to $(docv) as \
                    deterministic JSON."
          $ no_opt $ budget $ recover $ max_reports $ inject $ fuel_budget
          $ Harness.Cli.backend
              ~doc:"Execution backend: $(b,interp) (the reference \
                    interpreter, default) or $(b,jit) (the threaded-code \
                    compiler).  Outcomes, diagnostics, cycle counts and \
                    telemetry are identical on both; only wall clock \
                    differs.")

let () = exit (Cmd.eval cmd)
