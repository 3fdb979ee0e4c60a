(** Type checker for MiniC: annotates every expression's type slot in
    place and validates declarations.  Permissive where C is permissive
    (integer mixing, void* conversions), strict where lowering needs
    guarantees (lvalues, known fields, known callees). *)

exception Error of string * int
(** (message, source line). *)

type checked = {
  prog : Ast.program;
  layouts : Layout.env;
  funcs : (string, Ast.ty) Hashtbl.t;   (** name -> function type *)
  globals : (string, Ast.ty) Hashtbl.t;
}

val decay : Ast.ty -> Ast.ty
(** Array-to-pointer decay. *)

val parse_and_check : string -> checked
(** Lex + parse + check, folding lexer/parser errors into [Error]. *)
