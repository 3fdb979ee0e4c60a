(* CECSan: the public facade.

   Usage:
     let san = Cecsan.sanitizer () in
     let result = Sanitizer.Driver.run san source in
     ...

   [sanitizer ~config ()] builds a [Sanitizer.Spec.t] that instruments at
   link time and supplies the runtime (metadata table, Algorithms 1-2,
   interceptors). *)

module Config = Config
module Meta_table = Meta_table
module Runtime = Runtime
module Instrument = Instrument
module Subobject = Subobject
module Opt = Opt
module Costs = Costs

let sanitizer ?(config = Config.default) () : Sanitizer.Spec.t =
  {
    Sanitizer.Spec.name = "CECSan";
    instrument = Instrument.instrument ~config ~ns:"__cecsan";
    optimize = (fun md -> Instrument.optimize ~config md);
    verify = Some Opt.spec;
    fresh_runtime =
      (fun () ->
         snd
           (Runtime.create
              ~chain_overflow:config.Config.chain_overflow ()));
  }

(* Named variants used by the ablation benchmarks. *)
let variants : (string * Sanitizer.Spec.t) list =
  [
    "CECSan", sanitizer ();
    "CECSan-noopt", sanitizer ~config:Config.no_opts ();
    "CECSan-nosubobj", sanitizer ~config:Config.no_subobject ();
    "CECSan-noloopopt",
    sanitizer ~config:{ Config.default with opt_loop = false } ();
    "CECSan-notypeinfo",
    sanitizer ~config:{ Config.default with opt_typeinfo = false } ();
    "CECSan-noredundant",
    sanitizer ~config:{ Config.default with opt_redundant = false } ();
    "CECSan-chain", sanitizer ~config:Config.with_chain ();
  ]
