(* Tests of the certified-elision pipeline (DESIGN.md section 16):
   Tir.Absint behavior through the CECSan and ASan-- pipelines, the
   Tir.Scev overflow-guarded endpoint helpers, witness-replay mutation
   kills, and the absint-on/off differential property. *)

let seed_gen = QCheck.(map abs int)

let build_cecsan ?(absint = true) src =
  let config =
    { Cecsan.Config.default with Cecsan.Config.opt_absint = absint }
  in
  Sanitizer.Driver.build (Cecsan.sanitizer ~config ()) src

let count_markers md =
  Tir.Ir.count_intrins md (fun n -> String.equal n Tir.Ir.telemetry_elided)

let count_checks md =
  Tir.Ir.count_intrins md (fun n ->
      List.mem_assoc n Cecsan.Opt.model.Tir.Absint.am_checks)

(* straight-line, non-escaping stack + heap accesses: everything the
   redundant pass leaves behind is certifiably elidable *)
let demo_src =
  "int main() { int a[4]; a[0] = 1; a[1] = 2; a[2] = 3; a[3] = 4; \
   int *p = (int*)malloc(8); p[0] = a[0] + a[2]; p[1] = a[1] + a[3]; \
   int r = p[0] * p[1]; free(p); return r & 0x7f; }"

(* --- elision through the full pipeline ----------------------------------- *)

let absint_tests =
  [
    Alcotest.test_case "in-bounds non-escaping checks elide with witnesses"
      `Quick
      (fun () ->
         (* Strict verify inside [build] already replayed every witness *)
         let md = build_cecsan demo_src in
         Alcotest.(check bool) "elided markers present" true
           (count_markers md > 0);
         Alcotest.(check bool) "witnesses minted" true
           (md.Tir.Ir.m_witnesses <> []);
         List.iter
           (fun w ->
              Alcotest.(check bool) "witness claims non-escaping" false
                w.Tir.Witness.w_escapes)
           md.Tir.Ir.m_witnesses);
    Alcotest.test_case "an escaping pointer blocks elision" `Quick
      (fun () ->
         (* p escapes into the impure callee, so its checks survive *)
         let src =
           "static void sink(int *q) { free(q); } \
            int main() { int *p = (int*)malloc(8); p[0] = 7; \
            int r = p[0]; sink(p); return r; }"
         in
         let md = build_cecsan src in
         Alcotest.(check bool) "checks remain" true (count_checks md > 0));
    Alcotest.test_case "absint strictly increases elided sites" `Quick
      (fun () ->
         (* the acceptance pin: on top of redundant + loop elisions, the
            absint pass must elide or downgrade strictly more sites
            across the kernels (SPEC code mostly earns downgrades: the
            temporal half proves where variable sizes block bounds) *)
         let total absint =
           List.fold_left
             (fun acc (w : Workloads.Spec2006.t) ->
                match build_cecsan ~absint w.Workloads.Spec2006.w_source with
                | md ->
                  acc + count_markers md
                  + Tir.Ir.count_intrins md (fun n ->
                      Filename.check_suffix n "_spatial")
                | exception Sanitizer.Spec.Unsupported _ -> acc)
             0
             Workloads.Spec2006.all
         in
         let on = total true and off = total false in
         Alcotest.(check bool)
           (Printf.sprintf "%d (absint) > %d (scev-only)" on off)
           true (on > off));
    Alcotest.test_case "asan-- rides the same machinery via call models"
      `Quick
      (fun () ->
         (* allocator CALLS (not intrinsics) feed the points-to domain;
            Strict verify replayed the witnesses during build *)
         let md =
           Sanitizer.Driver.build (Baselines.Asan_minus.sanitizer ()) demo_src
         in
         Alcotest.(check bool) "asan-- witnesses minted" true
           (md.Tir.Ir.m_witnesses <> []));
    Alcotest.test_case "downgraded sites keep their site id and detection"
      `Quick
      (fun () ->
         (* every witness must point at a live site of its function *)
         let md = build_cecsan demo_src in
         List.iter
           (fun w ->
              Alcotest.(check bool) "site id minted" true
                (w.Tir.Witness.w_site >= 0))
           md.Tir.Ir.m_witnesses);
  ]

(* --- Tir.Scev endpoint edge cases (overflow-guarded helpers) -------------- *)

let scev_tests =
  [
    Alcotest.test_case "non-positive strides and zero-trip loops reject"
      `Quick
      (fun () ->
         Alcotest.(check (option int)) "negative stride" None
           (Tir.Scev.last_index ~start:0 ~bound:10 ~step:(-2));
         Alcotest.(check (option int)) "zero stride" None
           (Tir.Scev.last_index ~start:0 ~bound:10 ~step:0);
         Alcotest.(check (option int)) "zero-trip (bound = start)" None
           (Tir.Scev.last_index ~start:5 ~bound:5 ~step:1);
         Alcotest.(check (option int)) "zero-trip (bound < start)" None
           (Tir.Scev.last_index ~start:9 ~bound:2 ~step:3);
         Alcotest.(check (option int)) "one-trip" (Some 4)
           (Tir.Scev.last_index ~start:4 ~bound:5 ~step:7));
    Alcotest.test_case "endpoint arithmetic near max_int refuses to wrap"
      `Quick
      (fun () ->
         Alcotest.(check (option int)) "add overflow" None
           (Tir.Scev.add_no_ov max_int 1);
         Alcotest.(check (option int)) "sub underflow" None
           (Tir.Scev.sub_no_ov min_int 1);
         Alcotest.(check (option int)) "mul overflow" None
           (Tir.Scev.mul_no_ov ((max_int / 2) + 1) 2);
         Alcotest.(check (option int)) "min_int * -1" None
           (Tir.Scev.mul_no_ov min_int (-1));
         Alcotest.(check (option (pair int int))) "endpoint mul overflow"
           None
           (Tir.Scev.endpoint_offsets ~start:(max_int / 2)
              ~bound:((max_int / 2) + 2) ~step:1 ~elem_size:4 ~off:0);
         Alcotest.(check (option (pair int int))) "endpoint off overflow"
           None
           (Tir.Scev.endpoint_offsets ~start:(max_int - 8) ~bound:max_int
              ~step:1 ~elem_size:1 ~off:16));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"derived endpoints never overflow or flip sign" ~count:2000
         QCheck.(
           let corner =
             oneofl [ 0; 1; 2; 7; 1000; max_int; max_int - 1; max_int / 2;
                      max_int / 4 * 3 ]
           in
           let small = map abs small_int in
           tup5 (oneof [ small; corner ]) (oneof [ small; corner ])
             (map (fun n -> 1 + abs n) small_int)
             (oneof [ small; oneofl [ 0; 1; 4; 8; max_int / 2 ] ])
             (oneof [ small; corner ]))
         (fun (start, bound, step, elem_size, off) ->
            match
              Tir.Scev.endpoint_offsets ~start ~bound ~step ~elem_size ~off
            with
            | None -> true
            | Some (x, y) ->
              (* all inputs are >= 0 here, so a negative endpoint can
                 only come from silent wraparound *)
              if x < 0 || y < 0 || x > y then
                QCheck.Test.fail_reportf
                  "start=%d bound=%d step=%d es=%d off=%d -> (%d, %d)"
                  start bound step elem_size off x y
              else true));
    Alcotest.test_case "negative-stride loops stay correct end to end"
      `Quick
      (fun () ->
         (* a countdown loop is outside scev's grouping pattern: checks
            stay per-iteration, behavior and detection are unchanged *)
         let clean =
           "int main() { int a[8]; int s = 0; \
            for (int i = 8; i > 0; i--) a[i-1] = i; \
            for (int i = 0; i < 8; i++) s = s + a[i]; return s & 0x7f; }"
         in
         (match
            (Sanitizer.Driver.run (Cecsan.sanitizer ()) clean)
              .Sanitizer.Driver.outcome
          with
          | Vm.Machine.Exit c -> Alcotest.(check int) "clean exit" 36 c
          | o ->
            Alcotest.failf "clean countdown: %a" Vm.Machine.pp_outcome o);
         let oob =
           "int main() { int a[8]; int s = 0; \
            for (int i = 8; i >= 0; i--) a[i] = i; \
            for (int i = 0; i < 8; i++) s = s + a[i]; return s & 0x7f; }"
         in
         match
           (Sanitizer.Driver.run (Cecsan.sanitizer ()) oob)
             .Sanitizer.Driver.outcome
         with
         | Vm.Machine.Bug _ -> ()
         | o -> Alcotest.failf "oob countdown: %a" Vm.Machine.pp_outcome o);
  ]

(* --- witness-replay mutation kills ---------------------------------------- *)

(* Build the instrumented+optimized module WITHOUT the driver's Strict
   gate, so a mutation can be planted before verification. *)
let build_unverified src =
  let md = Sanitizer.Driver.compile_cached ~optimize:true src in
  let san = Cecsan.sanitizer () in
  san.Sanitizer.Spec.instrument md;
  san.Sanitizer.Spec.optimize md;
  md

let verify md = Tir.Verify.check ~spec:Cecsan.Opt.spec md

let mutate_first f (md : Tir.Ir.modul) =
  match md.Tir.Ir.m_witnesses with
  | [] -> Alcotest.fail "expected at least one witness"
  | w :: rest -> md.Tir.Ir.m_witnesses <- f w :: rest

let expect_reject what md =
  let r = verify md in
  Alcotest.(check bool) (what ^ " rejected") true
    (r.Tir.Verify.r_errors <> [])

let witness_tests =
  [
    Alcotest.test_case "intact witnesses replay clean" `Quick
      (fun () ->
         let md = build_unverified demo_src in
         let r = verify md in
         Alcotest.(check (list string)) "no errors" []
           (List.map Tir.Verify.error_to_string r.Tir.Verify.r_errors);
         Alcotest.(check bool) "witnesses replayed" true
           (r.Tir.Verify.r_witnesses > 0));
    Alcotest.test_case "wrong interval bound is killed" `Quick
      (fun () ->
         let md = build_unverified demo_src in
         mutate_first
           (fun w -> { w with Tir.Witness.w_hi = w.Tir.Witness.w_objsize })
           md;
         expect_reject "inflated w_hi" md);
    Alcotest.test_case "dropped escape fact is killed" `Quick
      (fun () ->
         let md = build_unverified demo_src in
         mutate_first (fun w -> { w with Tir.Witness.w_escapes = true }) md;
         expect_reject "escaping witness" md);
    Alcotest.test_case "stale temporal liveness is killed" `Quick
      (fun () ->
         let md = build_unverified demo_src in
         mutate_first (fun w -> { w with Tir.Witness.w_temporal = false }) md;
         expect_reject "non-temporal witness" md);
    Alcotest.test_case "wrong object descriptor is killed" `Quick
      (fun () ->
         let md = build_unverified demo_src in
         mutate_first (fun w -> { w with Tir.Witness.w_obj = "slot:bogus:9" })
           md;
         expect_reject "bogus object" md);
    Alcotest.test_case "dangling witness site is killed" `Quick
      (fun () ->
         let md = build_unverified demo_src in
         mutate_first (fun w -> { w with Tir.Witness.w_site = 999999 }) md;
         expect_reject "dangling site" md);
    Alcotest.test_case "deleting witnesses shrinks proven coverage" `Quick
      (fun () ->
         let base = build_unverified demo_src in
         let covered_base = (verify base).Tir.Verify.r_covered in
         let md = build_unverified demo_src in
         md.Tir.Ir.m_witnesses <- [];
         let r = verify md in
         Alcotest.(check bool)
           (Printf.sprintf "%d < %d" r.Tir.Verify.r_covered covered_base)
           true
           (r.Tir.Verify.r_covered < covered_base));
  ]

(* --- absint-on/off differential property ---------------------------------- *)

let site_sums (s : Telemetry.Snapshot.t) =
  List.map
    (fun (r : Telemetry.Snapshot.site_row) ->
       (r.Telemetry.Snapshot.s_site,
        r.Telemetry.Snapshot.s_executed + r.Telemetry.Snapshot.s_elided
        + r.Telemetry.Snapshot.s_covered))
    s.Telemetry.Snapshot.sites

let differential_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"certified elision is observationally invisible" ~count:200
         seed_gen
         (fun seed ->
            let p =
              Fuzz.Gen.generate ~inject:(seed mod 2 = 1)
                (Fuzz.Tape.fresh ~seed)
            in
            let go absint =
              Sanitizer.Driver.run
                (Cecsan.sanitizer
                   ~config:
                     { Cecsan.Config.default with
                       Cecsan.Config.opt_absint = absint }
                   ())
                ~externs:Fuzz.Oracle.externs p.Fuzz.Gen.src
            in
            let on = go true and off = go false in
            let show (r : Sanitizer.Driver.run_result) =
              Format.asprintf "%a" Vm.Machine.pp_outcome
                r.Sanitizer.Driver.outcome
            in
            if not (String.equal (show on) (show off)) then
              QCheck.Test.fail_reportf "seed %d: outcome %s vs %s@.%s" seed
                (show on) (show off) p.Fuzz.Gen.src
            else if
              not
                (String.equal on.Sanitizer.Driver.output
                   off.Sanitizer.Driver.output)
            then QCheck.Test.fail_reportf "seed %d: output diverged" seed
            else if on.Sanitizer.Driver.cycles > off.Sanitizer.Driver.cycles
            then
              QCheck.Test.fail_reportf
                "seed %d: absint made it SLOWER (%d > %d cycles)" seed
                on.Sanitizer.Driver.cycles off.Sanitizer.Driver.cycles
            else begin
              (* conservation per site: executed + elided + covered is
                 invariant under certified elision *)
              let a = site_sums on.Sanitizer.Driver.snapshot in
              let b = site_sums off.Sanitizer.Driver.snapshot in
              if a <> b then
                QCheck.Test.fail_reportf
                  "seed %d: per-site conservation broke@.%s" seed
                  p.Fuzz.Gen.src
              else true
            end));
  ]

(* --- equivalence pin ------------------------------------------------------ *)

(* One digest over everything the abstract interpreter and the verifier
   report on a fixed program set: every defined function's summary and
   per-site states, the fuel each [analyze] burned, each build's
   [Verify.check] counts and fuel, and the well-formedness errors of a
   deterministically corrupted copy (definite-assignment text and order
   included).  Taken under CECSan and ASan--, before and after
   [optimize].  The literal was captured before the fixpoint loops were
   last rewritten: any change to results or fuel breaks it, and only a
   deliberate change to what they compute may re-capture it. *)

let pin_budget = 1_000_000_000

let pin_sources () =
  let read path =
    let ic = open_in_bin path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    s
  in
  let corpus =
    Sys.readdir "corpus" |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".mc")
    |> List.sort String.compare
    |> List.map (fun f -> read (Filename.concat "corpus" f))
  in
  List.map
    (fun (w : Workloads.Spec2006.t) -> w.Workloads.Spec2006.w_source)
    (Workloads.Spec2006.all @ Workloads.Spec2017.all)
  @ corpus
  @ List.init 200 (fun seed ->
      (Fuzz.Gen.generate ~inject:(seed mod 2 = 1) (Fuzz.Tape.fresh ~seed))
        .Fuzz.Gen.src)

let pp_aval buf = function
  | Tir.Absint.Vtop -> Buffer.add_string buf "T"
  | Tir.Absint.Vint (l, h) -> Printf.bprintf buf "i%d,%d" l h
  | Tir.Absint.Vptr { obj; lo; hi } -> Printf.bprintf buf "p%d:%d,%d" obj lo hi

let pin_absint buf (spec : Tir.Verify.spec) md =
  match spec.Tir.Verify.absint with
  | None -> ()
  | Some model ->
    let pure =
      Tir.Analysis.pure_callees md ~is_hazard:(fun n ->
          List.mem n spec.Tir.Verify.hazard_intrinsics)
    in
    let cx = Tir.Absint.make_ctx model ~pure md in
    Tir.Ir.iter_funcs md (fun f ->
        if not f.Tir.Ir.f_external then begin
          let fuel = Tir.Fuel.make ~phase:"pin" ~budget:pin_budget in
          let su = Tir.Absint.analyze ~fuel cx f in
          Buffer.add_string buf
            (Format.asprintf "%a" Tir.Absint.pp_summary su);
          Hashtbl.fold (fun site st acc -> (site, st) :: acc)
            su.Tir.Absint.su_sites []
          |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
          |> List.iter (fun (site, (st : Tir.Absint.state)) ->
              Printf.bprintf buf "site %d:" site;
              Tir.Absint.Int_map.iter
                (fun r v -> Printf.bprintf buf " r%d=%a" r pp_aval v)
                st.Tir.Absint.s_regs;
              Tir.Absint.Int_set.iter (Printf.bprintf buf " f%d")
                st.Tir.Absint.s_freed;
              Buffer.add_char buf '\n');
          Printf.bprintf buf "absint fuel %d\n" (Tir.Fuel.remaining fuel)
        end)

let pin_verify buf spec md =
  let fuel = Tir.Fuel.make ~phase:"pin" ~budget:pin_budget in
  let r = Tir.Verify.check ~spec ~fuel md in
  Printf.bprintf buf "verify %d %d %d %d fuel %d\n" r.Tir.Verify.r_accesses
    r.Tir.Verify.r_covered r.Tir.Verify.r_witnesses
    (List.length r.Tir.Verify.r_errors)
    (Tir.Fuel.remaining fuel)

(* Drop the first definition of every odd block, and define a negative
   and an over-range register in the last block that the entry block
   reads first, so definite assignment has something to report. *)
let pin_corrupt buf md =
  let md = Tir.Ir.clone md in
  Tir.Ir.iter_funcs md (fun f ->
      let open Tir.Ir in
      Array.iteri
        (fun k b ->
           if k land 1 = 1 then begin
             let dropped = ref false in
             b.b_instrs <-
               List.filter
                 (fun i ->
                    if (not !dropped) && defs i <> None then begin
                      dropped := true;
                      false
                    end
                    else true)
                 b.b_instrs
           end)
        f.f_blocks;
      let n = Array.length f.f_blocks in
      if n > 0 then begin
        let b0 = f.f_blocks.(0) and bl = f.f_blocks.(n - 1) in
        b0.b_instrs <-
          Ibin { op = Add; dst = 0; a = Reg (-1); b = Reg (f.f_nregs + 2) }
          :: b0.b_instrs;
        bl.b_instrs <-
          Imov { dst = -1; src = Imm 0 }
          :: Imov { dst = f.f_nregs + 2; src = Reg (-1) } :: bl.b_instrs
      end);
  let fuel = Tir.Fuel.make ~phase:"pin" ~budget:pin_budget in
  List.iter
    (fun e -> Printf.bprintf buf "%s\n" (Tir.Verify.error_to_string e))
    (Tir.Verify.well_formed ~fuel md);
  Printf.bprintf buf "wf fuel %d\n" (Tir.Fuel.remaining fuel)

let pin_digest () =
  let buf = Buffer.create (1 lsl 20) in
  let sources = pin_sources () in
  List.iter
    (fun (san : Sanitizer.Spec.t) ->
       let spec = Option.get san.Sanitizer.Spec.verify in
       List.iter
         (fun src ->
            let md = Sanitizer.Driver.compile_cached ~optimize:true src in
            match san.Sanitizer.Spec.instrument md with
            | exception Sanitizer.Spec.Unsupported _ ->
              Buffer.add_string buf "unsupported\n"
            | () ->
              pin_verify buf spec md;
              pin_absint buf spec md;
              pin_corrupt buf md;
              san.Sanitizer.Spec.optimize md;
              pin_verify buf spec md;
              pin_absint buf spec md;
              pin_corrupt buf md)
         sources)
    [ Cecsan.sanitizer (); Baselines.Asan_minus.sanitizer () ];
  (Buffer.length buf, Digest.to_hex (Digest.string (Buffer.contents buf)))

let pin_tests =
  [
    Alcotest.test_case "absint and verify outputs match the pinned digest"
      `Quick
      (fun () ->
         let len, hex = pin_digest () in
         Alcotest.(check (pair int string)) "digest"
           (5604903, "d609c0f1d9404d681bdd93c6e1b71f0f")
           (len, hex));
  ]

let () =
  Alcotest.run "absint"
    [
      ("elision", absint_tests);
      ("scev-endpoints", scev_tests);
      ("witness-replay", witness_tests);
      ("differential", differential_tests);
      ("digest-pin", pin_tests);
    ]
