(** Memory layout of MiniC types: sizes, alignments, struct field
    offsets (natural alignment, as on x86-64). *)

type field = { f_name : string; f_ty : Ast.ty; f_off : int; f_size : int }

type struct_layout = {
  s_name : string;
  s_fields : field list;
  s_size : int;
  s_align : int;
}

type env = (string, struct_layout) Hashtbl.t

exception Error of string

val size_of : env -> Ast.ty -> int
val align_of : env -> Ast.ty -> int

val build : Ast.program -> env
(** Layouts for every struct definition (define-before-use). *)

val field : env -> string -> string -> field
val struct_layout : env -> string -> struct_layout
