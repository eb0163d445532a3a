(* Benchmark suite validation:
   - functional correctness of every kernel on the ISS against its OCaml
     reference model, over several input seeds;
   - gate-level CPU lockstep equivalence on every kernel;
   - symbolic analyzability: Algorithm 1 terminates within the declared
     path budget and the X-based peak power bound dominates concrete
     runs (the Section 3.4 validation, on the real suite). *)

let cpu = Tsupport.the_cpu ()
let pa = lazy (Core.Analyze.poweran_for cpu)

let poke_inputs_iss iss inputs =
  List.iteri
    (fun k w -> Isa.Iss.write_word iss (Benchprogs.Bench.input_base + (2 * k)) w)
    inputs

let read_outputs_iss iss n =
  List.init n (fun k ->
      Isa.Iss.read_word iss (Benchprogs.Bench.output_base + (2 * k)))

let test_reference b () =
  let img = Benchprogs.Bench.assemble b in
  List.iter
    (fun seed ->
      let iss = Isa.Iss.create img in
      let inputs = b.Benchprogs.Bench.gen_inputs ~seed in
      Alcotest.(check int)
        (Printf.sprintf "%s input count" b.Benchprogs.Bench.name)
        b.Benchprogs.Bench.input_words (List.length inputs);
      poke_inputs_iss iss inputs;
      Isa.Iss.run iss;
      let got = read_outputs_iss iss b.Benchprogs.Bench.output_words in
      let want = b.Benchprogs.Bench.reference inputs in
      Alcotest.(check (list int))
        (Printf.sprintf "%s outputs (seed %d)" b.Benchprogs.Bench.name seed)
        want got)
    [ 1; 2; 3; 5; 8; 13; 21; 42 ]

let test_lockstep b () =
  let img = Benchprogs.Bench.assemble b in
  let inputs = b.Benchprogs.Bench.gen_inputs ~seed:7 in
  (* lockstep starts from zeroed RAM on both sides; poke the same
     inputs into both models *)
  let e = Tsupport.fresh_engine img in
  ignore e;
  (* reuse Tsupport.lockstep but with inputs: assemble a variant whose
     inputs are materialized as stores at the start *)
  let init_items =
    List.concat
      (List.mapi
         (fun k w ->
           [
             Benchprogs.Bench.E.mov
               (Benchprogs.Bench.E.imm w)
               (Benchprogs.Bench.E.dabs (Benchprogs.Bench.input_base + (2 * k)));
           ])
         inputs)
  in
  let img2 =
    Tsupport.assemble_body ~name:b.Benchprogs.Bench.name
      (Tsupport.prologue @ init_items @ b.Benchprogs.Bench.body)
  in
  let r = Tsupport.lockstep ~max_insns:100_000 ~fail:Alcotest.fail img2 in
  Alcotest.(check int)
    (Printf.sprintf "%s cycle accounting" b.Benchprogs.Bench.name)
    (r.Tsupport.iss_cycles + 1) r.Tsupport.cpu_cycles

let analysis_cache : (string, Core.Analyze.t) Hashtbl.t = Hashtbl.create 16

let analyze b =
  match Hashtbl.find_opt analysis_cache b.Benchprogs.Bench.name with
  | Some a -> a
  | None ->
    let img = Benchprogs.Bench.assemble b in
    let config =
      {
        Core.Analyze.default_config with
        Core.Analyze.loop_bound = b.Benchprogs.Bench.loop_bound;
        max_paths = b.Benchprogs.Bench.max_paths;
      }
    in
    let a = Core.Analyze.run ~config (Lazy.force pa) cpu img in
    Hashtbl.replace analysis_cache b.Benchprogs.Bench.name a;
    a

let test_symbolic b () =
  let a = analyze b in
  Alcotest.(check bool)
    (Printf.sprintf "%s within path budget" b.Benchprogs.Bench.name)
    true
    (a.Core.Analyze.sym_stats.Gatesim.Sym.paths <= b.Benchprogs.Bench.max_paths);
  Alcotest.(check bool)
    (Printf.sprintf "%s nonempty trace" b.Benchprogs.Bench.name)
    true
    (Array.length a.Core.Analyze.power_trace > 20);
  (* the bound dominates concrete peaks for several input sets *)
  let img = Benchprogs.Bench.assemble b in
  List.iter
    (fun seed ->
      let inputs = b.Benchprogs.Bench.gen_inputs ~seed in
      let ctrace =
        Core.Analyze.run_concrete (Lazy.force pa) cpu img
          ~inputs:[ (Benchprogs.Bench.input_base, inputs) ]
      in
      let cpk, _ = Poweran.peak_of ctrace in
      Alcotest.(check bool)
        (Printf.sprintf "%s bound >= concrete (seed %d)" b.Benchprogs.Bench.name
           seed)
        true
        (a.Core.Analyze.peak_power >= cpk -. 1e-15))
    [ 11; 23 ];
  (* peak energy is a sensible positive quantity *)
  Alcotest.(check bool)
    (Printf.sprintf "%s energy positive" b.Benchprogs.Bench.name)
    true
    (a.Core.Analyze.peak_energy.Core.Peak_energy.energy > 0.)

let per_bench ?(benches = Benchprogs.Bench.all) kind f =
  List.map
    (fun b ->
      Alcotest.test_case
        (Printf.sprintf "%s %s" b.Benchprogs.Bench.name kind)
        `Quick (f b))
    benches

let () =
  Alcotest.run "bench"
    [
      ("reference", per_bench "ref" test_reference);
      ("lockstep", per_bench "lockstep" test_lockstep);
      ("symbolic", per_bench "symbolic" test_symbolic);
      ( "extended-reference",
        per_bench ~benches:Benchprogs.Extended.all "ref" test_reference );
      ( "extended-lockstep",
        per_bench ~benches:Benchprogs.Extended.all "lockstep" test_lockstep );
      ( "extended-symbolic",
        per_bench ~benches:Benchprogs.Extended.all "symbolic" test_symbolic );
    ]
