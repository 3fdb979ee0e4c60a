(* Tests for the MiniC front-end: lexer, parser, layout, sema. *)

open Minic

let check_ok name src =
  Alcotest.test_case name `Quick (fun () ->
      match Sema.parse_and_check src with
      | (_ : Sema.checked) -> ()
      | exception Sema.Error (m, l) ->
        Alcotest.failf "unexpected sema error at line %d: %s" l m)

let check_err name src =
  Alcotest.test_case name `Quick (fun () ->
      match Sema.parse_and_check src with
      | (_ : Sema.checked) -> Alcotest.failf "expected a sema error"
      | exception Sema.Error _ -> ())

(* [check_err] that also pins the error's line *)
let check_err_line name src line =
  Alcotest.test_case name `Quick (fun () ->
      match Sema.parse_and_check src with
      | (_ : Sema.checked) -> Alcotest.failf "expected a sema error"
      | exception Sema.Error (_, l) -> Alcotest.(check int) "line" line l)

let lexer_tests =
  let count name src expected =
    Alcotest.test_case name `Quick (fun () ->
        let toks = Lexer.tokenize src in
        Alcotest.(check int) "token count" expected (List.length toks))
  in
  [
    count "empty" "" 1;
    count "simple" "int x;" 4;
    count "comments ignored" "/* a */ int // b\n x;" 4;
    count "preprocessor ignored" "#include <stdio.h>\nint x;" 4;
    Alcotest.test_case "numbers" `Quick (fun () ->
        match Lexer.tokenize "0x10 42 077" with
        | [ (INT_LIT 16, _); (INT_LIT 42, _); (INT_LIT 77, _); (EOF, _) ] -> ()
        | _ -> Alcotest.fail "bad number lexing");
    Alcotest.test_case "char literals" `Quick (fun () ->
        match Lexer.tokenize "'a' '\\n' '\\x41'" with
        | [ (CHAR_LIT 97, _); (CHAR_LIT 10, _); (CHAR_LIT 65, _); (EOF, _) ] ->
          ()
        | _ -> Alcotest.fail "bad char lexing");
    Alcotest.test_case "string escapes" `Quick (fun () ->
        match Lexer.tokenize {|"a\nb"|} with
        | [ (STR_LIT "a\nb", _); (EOF, _) ] -> ()
        | _ -> Alcotest.fail "bad string lexing");
    Alcotest.test_case "wide string" `Quick (fun () ->
        match Lexer.tokenize {|L"ab"|} with
        | [ (WSTR_LIT [| 97; 98 |], _); (EOF, _) ] -> ()
        | _ -> Alcotest.fail "bad wide string lexing");
    Alcotest.test_case "line numbers" `Quick (fun () ->
        match Lexer.tokenize "int\nx\n;" with
        | [ (KINT, 1); (IDENT "x", 2); (SEMI, 3); (EOF, 3) ] -> ()
        | _ -> Alcotest.fail "bad line tracking");
    Alcotest.test_case "suffixed ints" `Quick (fun () ->
        match Lexer.tokenize "10UL 5L" with
        | [ (INT_LIT 10, _); (INT_LIT 5, _); (EOF, _) ] -> ()
        | _ -> Alcotest.fail "bad suffix handling");
  ]

let parser_tests =
  [
    check_ok "minimal main" "int main() { return 0; }";
    check_ok "arith" "int main() { int x = 1 + 2 * 3 - 4 / 2 % 3; return x; }";
    check_ok "precedence/logic"
      "int main() { int a = 1; int b = 2; return a && b || !a && (a ^ b); }";
    check_ok "pointers"
      "int main() { int x = 5; int *p = &x; *p = 7; return *p; }";
    check_ok "arrays" "int main() { int a[10]; a[0] = 1; return a[0]; }";
    check_ok "2d arrays"
      "int main() { int m[3][4]; m[1][2] = 7; return m[1][2]; }";
    check_ok "struct access"
      "struct P { int x; int y; };\n\
       int main() { struct P p; p.x = 1; p.y = 2; return p.x + p.y; }";
    check_ok "arrow"
      "struct P { int x; };\n\
       int main() { struct P p; struct P *q = &p; q->x = 3; return q->x; }";
    check_ok "for loop"
      "int main() { int s = 0; for (int i = 0; i < 10; i++) s += i; return s; }";
    check_ok "while and do"
      "int main() { int i = 0; while (i < 3) i++; do i--; while (i > 0); \
       return i; }";
    check_ok "break continue"
      "int main() { int s = 0; for (int i = 0; i < 10; i++) { if (i == 2) \
       continue; if (i == 5) break; s += i; } return s; }";
    check_ok "function calls"
      "int add(int a, int b) { return a + b; }\n\
       int main() { return add(1, add(2, 3)); }";
    check_ok "malloc/free"
      "int main() { char *p = (char*)malloc(16); p[0] = 'a'; free(p); \
       return 0; }";
    check_ok "sizeof" "int main() { return sizeof(int) + sizeof(long); }";
    check_ok "sizeof expr"
      "struct S { char buf[16]; int n; };\n\
       int main() { struct S s; return sizeof(s); }";
    check_ok "string literal"
      "int main() { char buf[16]; strcpy(buf, \"hello\"); \
       return strlen(buf); }";
    check_ok "wide string"
      "int main() { wchar_t buf[16]; wcscpy(buf, L\"hi\"); return 0; }";
    check_ok "casts" "int main() { long l = 300; char c = (char)l; return c; }";
    check_ok "void pointer"
      "int main() { void *p = malloc(8); int *q = (int*)p; *q = 1; free(p); \
       return 0; }";
    check_ok "globals"
      "int counter = 3;\nint arr[4] = {1, 2, 3, 4};\n\
       int main() { return counter + arr[2]; }";
    check_ok "global string"
      "char msg[6] = \"hello\";\nint main() { return msg[0]; }";
    check_ok "conditional" "int main() { int x = 5; return x > 3 ? 1 : 0; }";
    check_ok "comma"
      "int main() { int x; int y; x = (y = 1, y + 1); return x; }";
    check_ok "compound assign"
      "int main() { int x = 8; x += 2; x -= 1; x *= 3; x /= 2; x %= 7; \
       x <<= 1; x >>= 1; x &= 15; x |= 16; x ^= 3; return x; }";
    check_ok "pre/post incdec"
      "int main() { int i = 0; int a = i++; int b = ++i; int c = i--; \
       int d = --i; return a + b + c + d; }";
    check_ok "pointer arith"
      "int main() { int a[4]; int *p = a; p = p + 2; p--; \
       return (int)(p - a); }";
    check_ok "unsigned folded"
      "unsigned int main_helper;\nint main() { return 0; }";
    check_ok "extern decl" "extern int mystery(int x);\nint main() { return 0; }";
    check_ok "varargs printf"
      "int main() { printf(\"%d %s\", 1, \"x\"); return 0; }";
    check_ok "struct with array field"
      "struct CharVoid { char charFirst[16]; void *voidSecond; };\n\
       int main() { struct CharVoid s; s.charFirst[0] = 'a'; return 0; }";
    check_ok "nested struct"
      "struct In { int a; int b; };\nstruct Out { struct In in; int c; };\n\
       int main() { struct Out o; o.in.a = 1; o.c = o.in.a; return o.c; }";
    check_ok "typedef-ish stdint"
      "int main() { size_t n = 4; uint8_t b = 1; return (int)(n + b); }";
    check_ok "multi declarators"
      "int main() { int a = 1, b = 2, *p = &a; return a + b + *p; }";
    check_ok "hex and shifts" "int main() { return (0xff << 4) >> 8; }";
    check_ok "do-while zero" "int main() { do { return 1; } while (0); }";
    check_ok "static global" "static int hidden = 1;\nint main() { return hidden; }";
    check_ok "for without decl"
      "int main() { int i; int s = 0; for (i = 0; i < 4; ++i) s += i; \
       return s; }";
    check_ok "empty for header" "int main() { for (;;) { break; } return 0; }";
  ]

let sema_error_tests =
  [
    check_err "undeclared variable" "int main() { return x; }";
    check_err "undeclared function" "int main() { return f(1); }";
    check_err "bad arg count"
      "int f(int a) { return a; }\nint main() { return f(1, 2); }";
    check_err "deref non-pointer" "int main() { int x = 1; return *x; }";
    check_err "void deref" "int main() { void *p = 0; return *p; }";
    check_err "assign to rvalue" "int main() { 1 = 2; return 0; }";
    check_err "addr of rvalue" "int main() { int *p = &1; return 0; }";
    check_err "unknown field"
      "struct P { int x; };\nint main() { struct P p; return p.y; }";
    check_err "arrow on non-pointer"
      "struct P { int x; };\nint main() { struct P p; return p->x; }";
    check_err "unknown struct" "int main() { struct Q q; return 0; }";
    check_err "duplicate local" "int main() { int x = 1; int x = 2; return x; }";
    check_err "duplicate global" "int g;\nlong g;\nint main() { return 0; }";
    check_err "return value from void"
      "void f() { return 1; }\nint main() { return 0; }";
    check_err "string initializer too long"
      "int main() { char buf[3] = \"hello\"; return 0; }";
    check_err "struct arith"
      "struct P { int x; };\n\
       int main() { struct P p; struct P q; return p + q; }";
    check_err "index non-pointer" "int main() { int x = 1; return x[0]; }";
    check_err "assignment to array"
      "int main() { int a[3]; int b[3]; a = b; return 0; }";
    check_err "zero-size array" "int main() { int a[0]; return 0; }";
    (* the top-level [struct] lookahead stops at the end of the tokens *)
    check_err_line "struct at end of input" "int x; struct" 1;
    (* every use whose size Lower asks [Layout] for names a defined
       struct *)
    check_err_line "sizeof undefined struct"
      "int g;\nint main() {\n  return sizeof(struct Q);\n}" 3;
    check_err_line "sizeof of an undefined struct value"
      "int main() {\n  struct Q *p = 0;\n  return sizeof(*p);\n}" 3;
    check_err_line "step over an undefined struct"
      "struct Q *p;\nint main() {\n  p = p + 1;\n  return 0;\n}" 3;
    check_err_line "increment over an undefined struct"
      "int main() {\n  struct Q *p = 0;\n  p++;\n  return 0;\n}" 3;
    check_err_line "index over an undefined struct"
      "struct Q *p;\nint main() {\n  return &p[1] != 0;\n}" 3;
    check_err_line "copy of an undefined struct"
      "int main() {\n  struct Q *p = 0;\n  *p = *p;\n  return 0;\n}" 3;
    check_err_line "global of an undefined struct"
      "int x;\nstruct Q g;\nint main() { return 0; }" 2;
    check_err_line "parameter of an undefined struct"
      "int x;\nint f(struct Q s) { return 0; }\nint main() { return 0; }" 2;
  ]

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

(* Seeded byte mutants of a source: a bit flip, a truncation, an
   inserted punctuation byte, or a deleted span. *)
let mutate rng src =
  let n = String.length src in
  let pos () = Random.State.int rng (n + 1) in
  match Random.State.int rng 4 with
  | 0 when n > 0 ->
    let b = Bytes.of_string src and i = Random.State.int rng n in
    Bytes.set b i
      (Char.chr (Char.code src.[i] lxor (1 lsl Random.State.int rng 8)));
    Bytes.to_string b
  | 1 -> String.sub src 0 (pos ())
  | 2 ->
    let punct = ";,{}()[]*&.-><=!+\"'" in
    let i = pos () in
    String.sub src 0 i
    ^ String.make 1 punct.[Random.State.int rng (String.length punct)]
    ^ String.sub src i (n - i)
  | _ ->
    let i = pos () in
    let j = min n (i + 1 + Random.State.int rng 16) in
    String.sub src 0 i ^ String.sub src j (n - j)

(* Every mutant either compiles or is rejected with a classified
   front-end error: never another exception. *)
let mutation_tests =
  [
    Alcotest.test_case "byte mutants compile or fail classified" `Quick
      (fun () ->
         let corpus =
           Sys.readdir "corpus" |> Array.to_list
           |> List.filter (fun f -> Filename.check_suffix f ".mc")
           |> List.sort String.compare
           |> List.map (fun f -> read_file (Filename.concat "corpus" f))
         in
         let kernels =
           List.map (fun (w : Workloads.Spec2006.t) -> w.w_source)
             Workloads.Spec2006.all
           @ List.map (fun (w : Workloads.Spec2017.t) -> w.w_source)
             Workloads.Spec2017.all
         in
         let sources = corpus @ kernels in
         Alcotest.(check int) "sources" 32 (List.length sources);
         let rng = Random.State.make [| 0xC0DE |] in
         let total = ref 0 and rejected = ref 0 in
         List.iter
           (fun src ->
              for _ = 1 to 200 do
                let m = mutate rng src in
                incr total;
                match Sanitizer.Driver.compile m with
                | (_ : Tir.Ir.modul) -> ()
                | exception (Sema.Error _ | Tir.Lower.Error _) ->
                  incr rejected
                | exception e ->
                  Alcotest.failf "raised %s on %S" (Printexc.to_string e) m
              done)
           sources;
         Alcotest.(check bool) "at least 5000 mutants" true (!total >= 5000);
         (* not vacuous: mutants exercise both outcomes *)
         Alcotest.(check bool) "some rejected" true (!rejected > 0);
         Alcotest.(check bool) "some compiled" true (!rejected < !total));
  ]

let layout_tests =
  let layout_of src name =
    let c = Sema.parse_and_check src in
    Layout.struct_layout c.layouts name
  in
  [
    Alcotest.test_case "basic struct layout" `Quick (fun () ->
        let l = layout_of
            "struct S { char c; int i; char d; long l; };\n\
             int main() { return 0; }" "S"
        in
        let offs = List.map (fun f -> f.Layout.f_off) l.s_fields in
        Alcotest.(check (list int)) "offsets" [ 0; 4; 8; 16 ] offs;
        Alcotest.(check int) "size" 24 l.s_size;
        Alcotest.(check int) "align" 8 l.s_align);
    Alcotest.test_case "fig3 struct layout" `Quick (fun () ->
        (* the struct from Figure 3 of the paper *)
        let l = layout_of
            "struct CharVoid { char charFirst[16]; void *voidSecond; \
             void *voidThird; };\nint main() { return 0; }" "CharVoid"
        in
        Alcotest.(check int) "size" 32 l.s_size;
        let f = List.nth l.s_fields 1 in
        Alcotest.(check int) "voidSecond offset" 16 f.Layout.f_off);
    Alcotest.test_case "array sizes" `Quick (fun () ->
        let c = Sema.parse_and_check "int main() { return 0; }" in
        Alcotest.(check int) "int[10]" 40
          (Layout.size_of c.layouts (Ast.Tarr (Ast.Tint, 10)));
        Alcotest.(check int) "wchar[5]" 20
          (Layout.size_of c.layouts (Ast.Tarr (Ast.Twchar, 5))));
  ]

let () =
  Alcotest.run "minic"
    [
      "lexer", lexer_tests;
      "parser", parser_tests;
      "sema-errors", sema_error_tests;
      "layout", layout_tests;
      "mutation", mutation_tests;
    ]
