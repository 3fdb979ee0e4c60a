(* IR-level tests: CFG analyses, the check optimizer, and a differential
   fuzzer that generates random well-defined MiniC programs and asserts
   that every sanitizer preserves their semantics exactly. *)

(* --- CFG / dominators / loops ----------------------------------------------- *)

let compile src = Sanitizer.Driver.compile src

let main_of md = Option.get (Tir.Ir.find_func md "main")

let cfg_tests =
  [
    Alcotest.test_case "straight-line has no loops" `Quick (fun () ->
        let md = compile "int main() { int x = 1; return x + 2; }" in
        let f = main_of md in
        let cfg = Tir.Cfg.build f in
        let idom = Tir.Cfg.dominators cfg in
        Alcotest.(check int) "loops" 0
          (List.length (Tir.Cfg.loops f cfg idom)));
    Alcotest.test_case "one loop detected" `Quick (fun () ->
        let md =
          compile
            "int main() { int s = 0; for (int i = 0; i < 5; i++) s += i; \
             return s; }"
        in
        let f = main_of md in
        let cfg = Tir.Cfg.build f in
        let idom = Tir.Cfg.dominators cfg in
        Alcotest.(check int) "loops" 1
          (List.length (Tir.Cfg.loops f cfg idom)));
    Alcotest.test_case "nested loops both detected" `Quick (fun () ->
        let md =
          compile
            "int main() { int s = 0; for (int i = 0; i < 3; i++) \
             for (int j = 0; j < 3; j++) s++; return s; }"
        in
        let f = main_of md in
        let cfg = Tir.Cfg.build f in
        let idom = Tir.Cfg.dominators cfg in
        let loops = Tir.Cfg.loops f cfg idom in
        Alcotest.(check int) "loops" 2 (List.length loops);
        (* the inner loop's body is a subset of the outer's *)
        (match
           List.sort
             (fun a b ->
                compare
                  (List.length a.Tir.Cfg.body)
                  (List.length b.Tir.Cfg.body))
             loops
         with
         | [ inner; outer ] ->
           List.iter
             (fun b ->
                Alcotest.(check bool) "nesting" true
                  (List.mem b outer.Tir.Cfg.body))
             inner.Tir.Cfg.body
         | _ -> Alcotest.fail "expected two loops"));
    Alcotest.test_case "entry dominates everything reachable" `Quick
      (fun () ->
         let md =
           compile
             "int main() { int x = 1; if (x) x = 2; else x = 3; \
              while (x > 0) x--; return x; }"
         in
         let f = main_of md in
         let cfg = Tir.Cfg.build f in
         let idom = Tir.Cfg.dominators cfg in
         Array.iteri
           (fun b _ ->
              if idom.(b) <> -1 then
                Alcotest.(check bool)
                  (Printf.sprintf "0 dom %d" b)
                  true
                  (Tir.Cfg.dominates idom 0 b))
           f.Tir.Ir.f_blocks);
    Alcotest.test_case "preheader creation is idempotent-ish" `Quick
      (fun () ->
         let md =
           compile
             "int main() { int s = 0; for (int i = 0; i < 4; i++) s += i; \
              return s; }"
         in
         let f = main_of md in
         let cfg = Tir.Cfg.build f in
         let idom = Tir.Cfg.dominators cfg in
         match Tir.Cfg.loops f cfg idom with
         | [ l ] ->
           let n_before = Array.length f.Tir.Ir.f_blocks in
           let ph, _ = Tir.Cfg.make_preheader f cfg l in
           Alcotest.(check bool) "valid block id" true
             (ph >= 0 && ph < Array.length f.Tir.Ir.f_blocks);
           (* the loop already had a dedicated straight-line preheader
              from lowering, so no block should have been added *)
           Alcotest.(check int) "no growth" n_before
             (Array.length f.Tir.Ir.f_blocks)
         | _ -> Alcotest.fail "expected one loop");
  ]

(* --- redundant check elimination --------------------------------------------- *)

let count_checks md =
  Tir.Ir.count_intrins md (fun n ->
      String.length n >= 14
      && String.equal (String.sub n 0 14) "__cecsan_check")

let checkopt_tests =
  [
    Alcotest.test_case "repeated deref of one pointer deduplicates" `Quick
      (fun () ->
         let src =
           "int main() { int *p = (int*)malloc(8); *p = 1; *p = 2; \
            *p = *p + 3; int r = *p; free(p); return r; }"
         in
         (* absint off on both sides: it would elide every check of this
            trivial program and hide the redundant-elimination delta *)
         let with_elim =
           Sanitizer.Driver.build
             (Cecsan.sanitizer
                ~config:
                  { Cecsan.Config.default with
                    Cecsan.Config.opt_absint = false }
                ())
             src
         in
         let without =
           Sanitizer.Driver.build
             (Cecsan.sanitizer
                ~config:
                  { Cecsan.Config.default with
                    Cecsan.Config.opt_redundant = false;
                    Cecsan.Config.opt_absint = false }
                ())
             src
         in
         Alcotest.(check bool)
           (Printf.sprintf "%d < %d" (count_checks with_elim)
              (count_checks without))
           true
           (count_checks with_elim < count_checks without));
    Alcotest.test_case "a free between derefs blocks deduplication" `Quick
      (fun () ->
         (* the second check must survive: the object may be gone *)
         let src =
           "int main() { int *p = (int*)malloc(8); *p = 1; free(p); \
            return *p; }"
         in
         let r = Sanitizer.Driver.run (Cecsan.sanitizer ()) src in
         match r.Sanitizer.Driver.outcome with
         | Vm.Machine.Bug b when b.Vm.Report.r_kind = Vm.Report.Use_after_free
           -> ()
         | o ->
           Alcotest.failf "UAF must survive elision: %a"
             Vm.Machine.pp_outcome o);
    Alcotest.test_case "a call between derefs blocks deduplication" `Quick
      (fun () ->
         let src =
           "int *stash;\n\
            void saboteur() { free(stash); }\n\
            int main() { int *p = (int*)malloc(8); stash = p; *p = 1; \
            saboteur(); return *p; }"
         in
         let r = Sanitizer.Driver.run (Cecsan.sanitizer ()) src in
         match r.Sanitizer.Driver.outcome with
         | Vm.Machine.Bug _ -> ()
         | o ->
           Alcotest.failf "UAF across call must be caught: %a"
             Vm.Machine.pp_outcome o);
    Alcotest.test_case "struct-array loop gets endpoint grouping" `Quick
      (fun () ->
         let src =
           "struct P { long a; long b; };\n\
            int main() { int n = 64; \
            struct P *v = (struct P*)malloc(n * sizeof(struct P)); \
            for (int i = 0; i < n; i++) { v[i].a = i; v[i].b = 2 * i; } \
            long s = v[63].b; free(v); return (int)s & 255; }"
         in
         let full = Sanitizer.Driver.run (Cecsan.sanitizer ()) src in
         let noloop =
           Sanitizer.Driver.run
             (Cecsan.sanitizer
                ~config:
                  { Cecsan.Config.default with
                    Cecsan.Config.opt_loop = false }
                ())
             src
         in
         (match full.Sanitizer.Driver.outcome, noloop.Sanitizer.Driver.outcome
          with
          | Vm.Machine.Exit a, Vm.Machine.Exit b ->
            Alcotest.(check int) "same result" a b
          | _ -> Alcotest.fail "runs failed");
         Alcotest.(check bool) "grouping pays" true
           (full.Sanitizer.Driver.cycles < noloop.Sanitizer.Driver.cycles));
    Alcotest.test_case "variable constant bound still groups" `Quick
      (fun () ->
         (* n is a variable holding a compile-time constant: the mini
            constant propagation must see through it *)
         let src =
           "int main() { int n = 128; int *a = (int*)malloc(n * 4); \
            for (int i = 0; i < n; i++) a[i] = i; int r = a[127]; \
            free(a); return r & 255; }"
         in
         let san = Cecsan.sanitizer () in
         let md = Sanitizer.Driver.build san src in
         (* per-iteration checks gone: fewer than one check site per
            loop would imply at most prologue + endpoints *)
         let r = Sanitizer.Driver.run_module san md in
         (match r.Sanitizer.Driver.outcome with
          | Vm.Machine.Exit 127 -> ()
          | o -> Alcotest.failf "bad run: %a" Vm.Machine.pp_outcome o);
         let noopt =
           Sanitizer.Driver.run
             (Cecsan.sanitizer ~config:Cecsan.Config.no_opts ())
             src
         in
         Alcotest.(check bool) "fewer cycles than unoptimized" true
           (r.Sanitizer.Driver.cycles < noopt.Sanitizer.Driver.cycles));
  ]

(* --- differential fuzzing ----------------------------------------------------- *)

(* Generates random, well-defined MiniC programs: all array indices are
   masked in-bounds, all arithmetic is total, all allocations are freed.
   Every sanitizer must agree with the uninstrumented run bit-for-bit. *)
module Fuzz = struct
  open QCheck.Gen

  let var k = Printf.sprintf "v%d" (k mod 4)

  let rec expr depth =
    if depth <= 0 then
      oneof
        [ map (fun n -> string_of_int (n - 9)) (int_bound 18);
          map var (int_bound 3) ]
    else
      frequency
        [ 2, map (fun n -> string_of_int (n - 9)) (int_bound 18);
          3, map var (int_bound 3);
          2,
          map2
            (fun a b -> Printf.sprintf "(%s + %s)" a b)
            (expr (depth - 1)) (expr (depth - 1));
          2,
          map2
            (fun a b -> Printf.sprintf "(%s - %s)" a b)
            (expr (depth - 1)) (expr (depth - 1));
          1,
          map2
            (fun a b -> Printf.sprintf "(%s * %s)" a b)
            (expr (depth - 1)) (expr (depth - 1));
          1,
          map2
            (fun a b -> Printf.sprintf "(%s ^ %s)" a b)
            (expr (depth - 1)) (expr (depth - 1));
          1,
          map2
            (fun a b -> Printf.sprintf "(%s & %s)" a b)
            (expr (depth - 1)) (expr (depth - 1));
          1, map (fun a -> Printf.sprintf "arr[(%s) & 15]" a)
            (expr (depth - 1));
        ]

  let rec stmt depth =
    if depth <= 0 then
      map2
        (fun k e -> Printf.sprintf "%s = (%s) & 0xffff;" (var k) e)
        (int_bound 3) (expr 2)
    else
      frequency
        [ 3,
          map2
            (fun k e -> Printf.sprintf "%s = (%s) & 0xffff;" (var k) e)
            (int_bound 3) (expr 3);
          2,
          map2
            (fun i e -> Printf.sprintf "arr[(%s) & 15] = (%s) & 0xff;" i e)
            (expr 2) (expr 2);
          2,
          map3
            (fun c a b ->
               Printf.sprintf "if ((%s) > 0) { %s } else { %s }" c a b)
            (expr 2) (stmt (depth - 1)) (stmt (depth - 1));
          2,
          map2
            (fun n body ->
               Printf.sprintf
                 "for (int it%d = 0; it%d < %d; it%d++) { %s }" depth depth
                 (1 + (n mod 6)) depth body)
            (int_bound 5) (stmt (depth - 1));
          1,
          map2
            (fun e body ->
               Printf.sprintf
                 "{ int *hp = (int*)malloc(16 * sizeof(int)); \
                  for (int hi = 0; hi < 16; hi++) hp[hi] = hi; \
                  %s = (%s + hp[(%s) & 15]) & 0xffff; %s free(hp); }"
                 (var 0) (var 0) e body)
            (expr 2) (stmt (depth - 1));
          1,
          map
            (fun e ->
               Printf.sprintf
                 "{ char sbuf[32]; strcpy(sbuf, \"fuzzbox\"); \
                  %s = (%s + sbuf[(%s) & 7] + (int)strlen(sbuf)) & 0xffff; }"
                 (var 1) (var 1) e)
            (expr 2);
        ]

  let program =
    let open QCheck.Gen in
    map2
      (fun stmts seed ->
         Printf.sprintf
           "int main() {\n\
            int v0 = %d; int v1 = %d; int v2 = %d; int v3 = %d;\n\
            int arr[16];\n\
            for (int i = 0; i < 16; i++) arr[i] = i * 3;\n\
            %s\n\
            int cs = v0 + v1 * 3 + v2 * 5 + v3 * 7;\n\
            for (int i = 0; i < 16; i++) cs += arr[i];\n\
            return cs & 255;\n}"
           (seed mod 10)
           ((seed / 10) mod 10)
           ((seed / 100) mod 10)
           ((seed / 1000) mod 10)
           (String.concat "\n" stmts))
      (list_size (int_range 1 6) (stmt 3))
      (int_bound 9999)
end

let differential_test =
  QCheck.Test.make ~name:"all sanitizers preserve program semantics"
    ~count:120
    (QCheck.make Fuzz.program ~print:(fun s -> s))
    (fun src ->
       let outcome (san : Sanitizer.Spec.t) =
         match
           (Sanitizer.Driver.run san ~budget:100_000_000 src)
             .Sanitizer.Driver.outcome
         with
         | Vm.Machine.Exit c -> c
         | o ->
           QCheck.Test.fail_reportf "%s failed: %a" san.Sanitizer.Spec.name
             Vm.Machine.pp_outcome o
       in
       let expected = outcome Sanitizer.Spec.none in
       List.for_all
         (fun san -> outcome san = expected)
         [
           Cecsan.sanitizer ();
           Cecsan.sanitizer ~config:Cecsan.Config.no_opts ();
           Baselines.Asan.sanitizer ();
           Baselines.Asan_minus.sanitizer ();
           Baselines.Hwasan.sanitizer ();
           Baselines.Pacmem.sanitizer ();
           Baselines.Cryptsan.sanitizer ();
           Baselines.Softbound_cets.sanitizer ();
         ])

let clone_deep =
  (* Ir.clone must copy every mutable structure: a sanitizer pass run on
     the clone (rewriting blocks, slots, globals in place) may not leak
     through to the original.  This is what makes Driver.compile_cached
     sound. *)
  QCheck.Test.make
    ~name:"Ir.clone is deep (instrumenting the clone leaves the \
           original byte-identical)"
    ~count:60
    (QCheck.make Fuzz.program ~print:(fun s -> s))
    (fun src ->
       let m = Sanitizer.Driver.compile src in
       let before = Tir.Pp.module_to_string m in
       let c = Tir.Ir.clone m in
       if not (String.equal before (Tir.Pp.module_to_string c)) then
         QCheck.Test.fail_report "clone is not a faithful copy";
       (Cecsan.sanitizer ()).Sanitizer.Spec.instrument c;
       if String.equal before (Tir.Pp.module_to_string c) then
         QCheck.Test.fail_report
           "instrumentation was a no-op; the test is vacuous";
       if not (String.equal before (Tir.Pp.module_to_string m)) then
         QCheck.Test.fail_report
           "instrumenting the clone mutated the original";
       true)

let promote_differential =
  QCheck.Test.make ~name:"promotion (-O2 model) preserves semantics"
    ~count:80
    (QCheck.make Fuzz.program ~print:(fun s -> s))
    (fun src ->
       let run opt =
         match
           (Sanitizer.Driver.run Sanitizer.Spec.none ~optimize:opt
              ~budget:100_000_000 src)
             .Sanitizer.Driver.outcome
         with
         | Vm.Machine.Exit c -> c
         | o ->
           QCheck.Test.fail_reportf "run failed: %a" Vm.Machine.pp_outcome o
       in
       run true = run false)


(* --- link-time merging (section II.E) ----------------------------------------- *)

let lib_unit = {|
struct Pair { int x; int y; };

int lib_sum(int *data, int n) {
  int s = 0;
  for (int i = 0; i < n; i++) s += data[i];
  return s;
}

char *lib_frob(char *buf) {
  /* legacy code writes through the raw pointer */
  buf[0] = 'L';
  return buf;
}
|}

let main_unit = {|
struct Pair { int x; int y; };

extern int lib_sum(int *data, int n);
extern char *lib_frob(char *buf);

int main() {
  int data[8];
  for (int i = 0; i < 8; i++) data[i] = i;
  int s = lib_sum(data, 8);
  char buf[16];
  strcpy(buf, "hello");
  char *r = lib_frob(buf);
  return s + (r[0] == 'L' ? 1 : 0);
}
|}

let link_tests =
  [
    Alcotest.test_case "two instrumented units link and run" `Quick
      (fun () ->
         let md =
           Sanitizer.Driver.build_link (Cecsan.sanitizer ())
             [ (main_unit, `Instrumented); (lib_unit, `Instrumented) ]
         in
         let r = Sanitizer.Driver.run_module (Cecsan.sanitizer ()) md in
         match r.Sanitizer.Driver.outcome with
         | Vm.Machine.Exit 29 -> ()
         | o -> Alcotest.failf "got %a" Vm.Machine.pp_outcome o);
    Alcotest.test_case "legacy unit runs uninstrumented" `Quick (fun () ->
        let md =
          Sanitizer.Driver.build_link (Cecsan.sanitizer ())
            [ (main_unit, `Instrumented); (lib_unit, `Uninstrumented) ]
        in
        (* the legacy function's body must contain no CECSan intrinsics *)
        let f = Option.get (Tir.Ir.find_func md "lib_sum") in
        Alcotest.(check bool) "marked external" true f.Tir.Ir.f_external;
        Array.iter
          (fun b ->
             List.iter
               (function
                 | Tir.Ir.Iintrin { name; _ } ->
                   Alcotest.failf "legacy code instrumented with %s" name
                 | _ -> ())
               b.Tir.Ir.b_instrs)
          f.Tir.Ir.f_blocks;
        let r = Sanitizer.Driver.run_module (Cecsan.sanitizer ()) md in
        match r.Sanitizer.Driver.outcome with
        | Vm.Machine.Exit 29 -> ()
        | o -> Alcotest.failf "got %a" Vm.Machine.pp_outcome o);
    Alcotest.test_case "bugs in instrumented side still caught" `Quick
      (fun () ->
         let buggy_main = {|
extern int lib_sum(int *data, int n);
int main() {
  int *data = (int*)malloc(8 * sizeof(int));
  data[9] = 1;
  int s = lib_sum(data, 8);
  free(data);
  return s;
}
|}
         in
         let md =
           Sanitizer.Driver.build_link (Cecsan.sanitizer ())
             [ (buggy_main, `Instrumented); (lib_unit, `Uninstrumented) ]
         in
         let r = Sanitizer.Driver.run_module (Cecsan.sanitizer ()) md in
         match r.Sanitizer.Driver.outcome with
         | Vm.Machine.Bug _ -> ()
         | o -> Alcotest.failf "expected report, got %a"
                  Vm.Machine.pp_outcome o);
    Alcotest.test_case "bugs inside legacy code are NOT caught" `Quick
      (fun () ->
         (* the honest limitation: uninstrumented code can overflow
            silently (paper section V.3) *)
         let bad_lib = {|
void lib_smash(char *buf) {
  for (int i = 0; i < 24; i++) buf[i] = 'X';
}
|}
         in
         let m = {|
extern void lib_smash(char *buf);
int main() {
  char *buf = (char*)malloc(16);
  char *other = (char*)malloc(16);
  other[0] = 'o';
  lib_smash(buf);
  int r = other[0];
  free(buf);
  free(other);
  return r;
}
|}
         in
         let md =
           Sanitizer.Driver.build_link (Cecsan.sanitizer ())
             [ (m, `Instrumented); (bad_lib, `Uninstrumented) ]
         in
         let r = Sanitizer.Driver.run_module (Cecsan.sanitizer ()) md in
         match r.Sanitizer.Driver.outcome with
         | Vm.Machine.Exit _ -> ()
         | o -> Alcotest.failf "expected silent corruption, got %a"
                  Vm.Machine.pp_outcome o);
    Alcotest.test_case "string literals deduplicate per unit" `Quick
      (fun () ->
         let u1 = {|
extern int side(void);
int main() { char b[16]; strcpy(b, "shared"); return side() + b[0]; }
|}
         in
         let u2 = {|
int side(void) { char b[16]; strcpy(b, "shared"); return (int)strlen(b); }
|}
         in
         let md =
           Sanitizer.Driver.build_link (Cecsan.sanitizer ())
             [ (u1, `Instrumented); (u2, `Instrumented) ]
         in
         let r = Sanitizer.Driver.run_module (Cecsan.sanitizer ()) md in
         match r.Sanitizer.Driver.outcome with
         | Vm.Machine.Exit c -> Alcotest.(check int) "result" (6 + 115) c
         | o -> Alcotest.failf "got %a" Vm.Machine.pp_outcome o);
    Alcotest.test_case "same-shape units keep their own literals" `Quick
      (fun () ->
         (* two secondary units whose modules differ only in a string
            literal: each must keep its own renamed global *)
         let m = {|
extern char *fa(char *b);
extern char *fb(char *b);
int main() {
  char x[8];
  char y[8];
  printf("%s %s", fa(x), fb(y));
  return 0;
}
|}
         in
         let ua = {|char *fa(char *b) { strcpy(b, "alpha"); return b; }|} in
         let ub = {|char *fb(char *b) { strcpy(b, "beta"); return b; }|} in
         List.iter
           (fun (san : Sanitizer.Spec.t) ->
              let md =
                Sanitizer.Driver.build_link san
                  [ (m, `Instrumented); (ua, `Instrumented);
                    (ub, `Instrumented) ]
              in
              List.iter
                (fun backend ->
                   let r = Sanitizer.Driver.run_module san ~backend md in
                   Alcotest.(check string)
                     (san.Sanitizer.Spec.name ^ " output") "alpha beta"
                     r.Sanitizer.Driver.output)
                [ Vm.Machine.Interp; Vm.Machine.Jit ])
           [ Sanitizer.Spec.none; Cecsan.sanitizer () ]);
    Alcotest.test_case "duplicate definitions rejected" `Quick (fun () ->
        let u = "int f() { return 1; }\nint main() { return f(); }" in
        let v = "int f() { return 2; }" in
        match
          Sanitizer.Driver.build_link Sanitizer.Spec.none
            [ (u, `Instrumented); (v, `Instrumented) ]
        with
        | (_ : Tir.Ir.modul) -> Alcotest.fail "expected Link_error"
        | exception Tir.Link.Link_error _ -> ());
  ]

(* --- the shared copy table against a naive model ------------------------- *)

(* The model keeps the copy chains as an association list, as a
   [Hashtbl] from register to copy source did before the table went
   dense: [canon] follows the chain, and a kill removes the register's
   own entry and every entry naming it.  One difference is deliberate:
   a self-copy records nothing (the hashtable recorded [r -> r], and a
   later [canon r] never returned). *)
module Copy_model = struct
  let rec canon m r =
    match List.assoc_opt r m with Some s -> canon m s | None -> r

  let kill m r = List.filter (fun (k, s) -> k <> r && s <> r) m

  let move m ~dst ~src =
    let m = kill m dst in
    let root = canon m src in
    if root = dst then m else (dst, root) :: m
end

type copy_op =
  | Move of int * int
  | Kill of int
  | Canon of int
  | Reset

let pp_copy_op = function
  | Move (d, s) -> Printf.sprintf "r%d = r%d" d s
  | Kill r -> Printf.sprintf "kill r%d" r
  | Canon r -> Printf.sprintf "canon r%d" r
  | Reset -> "reset"

(* Runs [ops] on a table of [nregs] registers and on the model; the
   first disagreement, if any. *)
let copies_disagree nregs ops =
  let t = Tir.Copies.create nregs in
  let all = List.init (nregs + 4) (fun k -> k - 2) in
  let rec go m = function
    | [] ->
      List.find_map
        (fun r ->
           let a = Tir.Copies.canon t r and b = Copy_model.canon m r in
           if a = b then None
           else
             Some
               (Printf.sprintf "at the end, canon r%d: %d, model %d" r a b))
        all
    | op :: rest ->
      (match op with
       | Move (dst, src) ->
         Tir.Copies.move t ~dst ~src;
         go (Copy_model.move m ~dst ~src) rest
       | Kill r ->
         Tir.Copies.kill t r;
         go (Copy_model.kill m r) rest
       | Reset ->
         Tir.Copies.reset t;
         go [] rest
       | Canon r ->
         let a = Tir.Copies.canon t r and b = Copy_model.canon m r in
         if a = b then go m rest
         else
           Some (Printf.sprintf "%s: %d, model %d" (pp_copy_op op) a b))
  in
  go [] ops

let copies_gen =
  let open QCheck.Gen in
  int_range 0 6 >>= fun nregs ->
  let reg = int_range (-2) (nregs + 1) in
  let op =
    frequency
      [ (5, map2 (fun d s -> Move (d, s)) reg reg);
        (2, map (fun r -> Kill r) reg);
        (4, map (fun r -> Canon r) reg);
        (1, return Reset) ]
  in
  map (fun ops -> (nregs, ops)) (list_size (int_range 1 60) op)

let copies_model_test =
  QCheck.Test.make ~name:"copy table agrees with the association-list model"
    ~count:3000
    (QCheck.make copies_gen ~print:(fun (n, ops) ->
         Printf.sprintf "nregs %d: %s" n
           (String.concat "; " (List.map pp_copy_op ops))))
    (fun (nregs, ops) ->
       match copies_disagree nregs ops with
       | None -> true
       | Some what -> QCheck.Test.fail_reportf "%s" what)

let copies_tests =
  let case name nregs ops =
    Alcotest.test_case name `Quick (fun () ->
        Alcotest.(check (option string)) "disagreement" None
          (copies_disagree nregs ops))
  in
  [ case "a source with several dependents" 6
      [ Move (1, 0); Move (2, 0); Move (3, 1); Canon 3; Kill 0; Canon 1;
        Canon 2; Canon 3; Move (4, 2); Canon 4 ];
    case "chains name their root" 6
      [ Move (1, 0); Move (2, 1); Move (3, 2); Kill 1; Canon 2; Canon 3;
        Move (0, 3); Canon 0; Kill 0; Canon 3; Move (1, 1); Canon 1 ];
    case "registers outside the frame" 2
      [ Move (3, 0); Move (-2, 3); Move (-1, -2); Canon (-1); Kill 0;
        Canon 3; Canon (-2); Move (0, -1); Canon 0; Kill (-1); Canon 0 ];
    case "a reset forgets every copy" 3
      [ Move (1, 0); Move (-2, 1); Reset; Canon 1; Canon (-2); Move (2, 1);
        Canon 2 ];
    QCheck_alcotest.to_alcotest copies_model_test ]

let () =
  Alcotest.run "tir"
    [
      "cfg", cfg_tests;
      "checkopt", checkopt_tests;
      "link", link_tests;
      "copies", copies_tests;
      "differential",
      [
        QCheck_alcotest.to_alcotest differential_test;
        QCheck_alcotest.to_alcotest clone_deep;
        QCheck_alcotest.to_alcotest promote_differential;
      ];
    ]
