(* One runner per paper table/figure (see DESIGN.md §4). Each returns a
   rendered ASCII block; `run_all` regenerates everything in order. *)

let bname (b : Benchprogs.Bench.t) = b.Benchprogs.Bench.name

let f3 = Printf.sprintf "%.3f"
let f2 = Printf.sprintf "%.2f"

(* ---------- static tables ---------- *)

let table_1_1 _ctx =
  Render.heading "Table 1.1: battery specific energy and energy density"
  ^ Render.table
      ~header:[ "Battery"; "Specific Energy [J/g]"; "Energy Density [MJ/L]" ]
      ~rows:
        (List.map
           (fun (b : Sizing.Battery.t) ->
             [
               b.Sizing.Battery.name;
               Printf.sprintf "%.0f" b.Sizing.Battery.specific_energy;
               f3 b.Sizing.Battery.energy_density;
             ])
           Sizing.Battery.all)

let table_1_2 _ctx =
  Render.heading "Table 1.2: harvester power density"
  ^ Render.table
      ~header:[ "Harvester"; "Power density" ]
      ~rows:
        (List.map
           (fun (h : Sizing.Harvester.t) ->
             let d = h.Sizing.Harvester.power_density in
             let s =
               if d >= 1e-3 then Printf.sprintf "%.0f mW/cm^2" (d *. 1e3)
               else Printf.sprintf "%.0f uW/cm^2" (d *. 1e6)
             in
             [ h.Sizing.Harvester.name; s ])
           Sizing.Harvester.all)

let table_6_1 _ctx =
  Render.heading "Table 6.1: microarchitectural features of embedded processors"
  ^ Render.table
      ~header:[ "Processor"; "Branch Predictor"; "Cache" ]
      ~rows:
        [
          [ "ARM Cortex-M0"; "no"; "no" ];
          [ "ARM Cortex-M3"; "yes"; "no" ];
          [ "Atmel ATxmega128A4"; "no"; "no" ];
          [ "Freescale/NXP MC13224v"; "no"; "no" ];
          [ "Intel Quark-D1000"; "yes"; "yes" ];
          [ "Jennic/NXP JN5169"; "no"; "no" ];
          [ "SiLab Si2012"; "no"; "no" ];
          [ "TI MSP430"; "no"; "no" ];
        ]

(* ---------- chapter 1/2 motivation ---------- *)

let fig_1_5 ctx =
  (* active gates at each application's peak cycle, per module *)
  let row b =
    let a = Context.analysis ctx b in
    let cy = a.Core.Analyze.flattened.(a.Core.Analyze.peak_index) in
    let nl = ctx.Context.cpu.Cpu.netlist in
    let tbl = Hashtbl.create 8 in
    let bump net =
      let m = Netlist.module_of nl net in
      Hashtbl.replace tbl m (1 + Option.value ~default:0 (Hashtbl.find_opt tbl m))
    in
    Array.iter (fun d -> bump (Gatesim.Trace.net d)) cy.Gatesim.Trace.deltas;
    Array.iter bump cy.Gatesim.Trace.x_active;
    let total = Gatesim.Trace.activity cy in
    (bname b, total, tbl)
  in
  let thold = row (Benchprogs.Bench.find "tHold") in
  let pi = row (Benchprogs.Bench.find "PI") in
  let modules =
    [ "clk_module"; "dbg"; "exec_unit"; "frontend"; "mem_backbone";
      "multiplier"; "sfr"; "watchdog" ]
  in
  let line (name, total, tbl) =
    name :: string_of_int total
    :: List.map
         (fun m -> string_of_int (Option.value ~default:0 (Hashtbl.find_opt tbl m)))
         modules
  in
  Render.heading
    "Figure 1.5: active gates at the peak cycle are application-specific"
  ^ Render.table
      ~header:([ "app"; "active" ] @ modules)
      ~rows:[ line thold; line pi ]

let fig_2_2 ctx ~energy =
  let subset =
    List.map Benchprogs.Bench.find Benchprogs.Bench.measured_subset
  in
  let rows =
    List.map
      (fun b ->
        let p = Context.profile_f1610 ctx b in
        if energy then
          let mean =
            List.fold_left ( +. ) 0. p.Baselines.Profiling.npes
            /. float_of_int (List.length p.Baselines.Profiling.npes)
          in
          [
            bname b;
            Render.npe_pj mean;
            Render.npe_pj p.Baselines.Profiling.min_npe;
            Render.npe_pj p.Baselines.Profiling.max_npe;
          ]
        else
          let mean =
            List.fold_left ( +. ) 0. p.Baselines.Profiling.peaks
            /. float_of_int (List.length p.Baselines.Profiling.peaks)
          in
          [
            bname b;
            Render.mw mean;
            Render.mw p.Baselines.Profiling.min_peak;
            Render.mw p.Baselines.Profiling.max_peak;
          ])
      subset
  in
  let what, unit_ =
    if energy then ("normalized peak energy", "pJ/cycle") else ("peak power", "mW")
  in
  Render.heading
    (Printf.sprintf
       "Figure 2.2%s: measured %s across inputs (MSP430F1610 stand-in: 130nm, 3V, 8MHz)"
       (if energy then "b" else "a")
       what)
  ^ Render.table
      ~header:[ "app"; "mean [" ^ unit_ ^ "]"; "min"; "max" ]
      ~rows
  ^ (if energy then ""
     else
       Printf.sprintf
         "rated chip peak (design tool at this operating point): %s mW, far above any application\n"
         (Render.mw
            (Poweran.design_tool_power ctx.Context.pa_f1610
               ~activity:Poweran.default_design_activity)))

let fig_2_3 ctx =
  let b = Benchprogs.Bench.find "mult" in
  let img = Benchprogs.Bench.assemble b in
  let trace =
    Core.Analyze.run_concrete ctx.Context.pa_f1610 ctx.Context.cpu img
      ~inputs:[ (Benchprogs.Bench.input_base, b.Benchprogs.Bench.gen_inputs ~seed:8) ]
  in
  let mean = Array.fold_left ( +. ) 0. trace /. float_of_int (Array.length trace) in
  let peak, _ = Poweran.peak_of trace in
  Render.heading
    "Figure 2.3: instantaneous power of mult (MSP430F1610 stand-in, one input)"
  ^ Printf.sprintf "peak %s mW, mean %s mW over %d cycles\n%s\n" (Render.mw peak)
      (Render.mw mean) (Array.length trace) (Render.series trace)

(* ---------- chapter 3 ---------- *)

let fig_3_2 _ctx =
  (* the worked example: render original / even / odd tables *)
  let table_rows =
    [|
      [| '0'; '0'; '1'; 'x'; 'x'; 'x'; '0'; '0'; '0' |];
      [| '0'; 'x'; 'x'; 'x'; 'x'; 'x'; 'x'; '0'; '0' |];
      [| '0'; '0'; '0'; '1'; 'x'; 'x'; 'x'; 'x'; '0' |];
    |]
  in
  let ctx' = Rtl.create () in
  let a = Rtl.input ctx' in
  let g1 = Rtl.not_ ctx' a in
  let g2 = Rtl.not_ ctx' g1 in
  let g3 = Rtl.not_ ctx' g2 in
  let nl = Rtl.freeze ctx' in
  let gates = [| g1; g2; g3 |] in
  let nets = Netlist.gate_count nl in
  let initial = Array.make nets 0 in
  Array.iteri
    (fun g net -> initial.(net) <- Tri.to_int (Tri.of_char table_rows.(g).(0)))
    gates;
  let cycles =
    Array.init 8 (fun k ->
        let deltas = ref [] and xact = ref [] in
        Array.iteri
          (fun g net ->
            let o = Tri.of_char table_rows.(g).(k)
            and n = Tri.of_char table_rows.(g).(k + 1) in
            if not (Tri.equal o n) then
              deltas :=
                Gatesim.Trace.pack ~net ~old_v:(Tri.to_int o)
                  ~new_v:(Tri.to_int n)
                :: !deltas
            else if Tri.is_x n then xact := net :: !xact)
          gates;
        {
          Gatesim.Trace.deltas = Array.of_list !deltas;
          x_active = Array.of_list !xact;
          pc = Tri.Word.all_x ~width:16;
          state = Tri.Word.all_x ~width:16;
          ir = Tri.Word.all_x ~width:16;
        })
  in
  let replayed = Core.Evenodd.replay ~initial cycles in
  let show (label, (assigned : Core.Evenodd.assigned)) =
    let row g net =
      Printf.sprintf "g%d" (g + 1)
      :: List.init 9 (fun col ->
             String.make 1
               (Tri.to_char
                  (Tri.of_int (Char.code (Bytes.get assigned.Core.Evenodd.values.(col) net)))))
    in
    label ^ "\n"
    ^ Render.table
        ~header:("gate" :: List.init 9 (fun c -> string_of_int (c + 1)))
        ~rows:(Array.to_list (Array.mapi row gates))
  in
  let lib = Stdcell.default in
  let even = Core.Evenodd.maximize lib nl ~parity:0 replayed cycles in
  let odd = Core.Evenodd.maximize lib nl ~parity:1 replayed cycles in
  Render.heading "Figure 3.2: even/odd X assignment worked example"
  ^ show ("original activity (X = unknown):", replayed)
  ^ show ("maximize even cycles:", even)
  ^ show ("maximize odd cycles:", odd)

let fig_3_3 ctx =
  let rows =
    List.map
      (fun b ->
        let a = Context.analysis ctx b in
        let t = a.Core.Analyze.power_trace in
        let mean = Array.fold_left ( +. ) 0. t /. float_of_int (Array.length t) in
        Printf.sprintf "%-10s peak %s mW mean %s mW (%d cycles)\n  %s" (bname b)
          (Render.mw a.Core.Analyze.peak_power)
          (Render.mw mean) (Array.length t) (Render.series t))
      Context.all_benchmarks
  in
  Render.heading "Figure 3.3: per-cycle X-based peak power traces"
  ^ String.concat "\n" rows ^ "\n"

let low_high_inputs b =
  (* near-zero data (minimal toggling) vs alternating patterns *)
  ( b.Benchprogs.Bench.gen_inputs ~seed:1,
    b.Benchprogs.Bench.gen_inputs ~seed:2 )

let fig_3_4 ctx =
  let b = Benchprogs.Bench.find "mult" in
  let a = Context.analysis ctx b in
  let img = Benchprogs.Bench.assemble b in
  let nl = ctx.Context.cpu.Cpu.netlist in
  let lo, hi = low_high_inputs b in
  let render label inputs =
    let concrete =
      Core.Analyze.run_concrete_records ctx.Context.cpu img
        ~inputs:[ (Benchprogs.Bench.input_base, inputs) ]
    in
    let sets = Core.Validate.compare_toggles ~tree:a.Core.Analyze.tree ~concrete in
    let by_mod = Core.Validate.by_module nl in
    let common = by_mod sets.Core.Validate.common in
    let xonly = by_mod sets.Core.Validate.sym_only in
    Printf.sprintf
      "%s: common %d gates, X-only %d gates, concrete-only %d (must be 0)\n%s"
      label
      (List.length sets.Core.Validate.common)
      (List.length sets.Core.Validate.sym_only)
      (List.length sets.Core.Validate.concrete_only)
      (Render.table
         ~header:[ "module"; "common"; "x-only" ]
         ~rows:
           (List.map
              (fun (m, c) ->
                [
                  m;
                  string_of_int c;
                  string_of_int (Option.value ~default:0 (List.assoc_opt m xonly));
                ])
              common))
  in
  Render.heading
    "Figure 3.4: X-based potentially-toggled gates are a superset (mult)"
  ^ render "low-activity inputs" lo
  ^ render "high-activity inputs" hi

let fig_3_5 ctx =
  let b = Benchprogs.Bench.find "mult" in
  let a = Context.analysis ctx b in
  let img = Benchprogs.Bench.assemble b in
  let concrete =
    Core.Analyze.run_concrete_records ctx.Context.cpu img
      ~inputs:[ (Benchprogs.Bench.input_base, b.Benchprogs.Bench.gen_inputs ~seed:8) ]
  in
  let ctrace = Poweran.trace_power ctx.Context.pa ~mode:`Observed concrete in
  match Core.Validate.check_bound ctx.Context.pa ~tree:a.Core.Analyze.tree ~concrete with
  | None -> "fig-3.5: no matching path found (unexpected)\n"
  | Some chk ->
    Render.heading "Figure 3.5: the X-based trace bounds every input-based trace (mult)"
    ^ Printf.sprintf
        "cycles checked %d, violations %d, max observed/bound ratio %.3f\n\
         X-based peak %s mW, input-based peak %s mW\n\
         X-based: %s\n\
         input:   %s\n"
        chk.Core.Validate.cycles_checked
        (List.length chk.Core.Validate.violations)
        chk.Core.Validate.max_ratio
        (Render.mw chk.Core.Validate.sym_peak)
        (Render.mw chk.Core.Validate.concrete_peak)
        (Render.series a.Core.Analyze.power_trace)
        (Render.series ctrace)

let fig_3_6 ctx =
  let b = Benchprogs.Bench.find "mult" in
  let a = Context.analysis ctx b in
  let cois = Core.Analyze.cois ctx.Context.pa a ~top:2 ~min_gap:4 in
  Render.heading "Figure 3.6: cycles of interest for mult"
  ^ String.concat ""
      (List.map (fun c -> Format.asprintf "%a" Core.Coi.pp c) cois)

(* ---------- chapter 4 ---------- *)

let fig_4_1 ctx ~energy =
  let rows =
    List.map
      (fun b ->
        let p = Context.profile ctx b in
        if energy then
          let mean =
            List.fold_left ( +. ) 0. p.Baselines.Profiling.npes
            /. float_of_int (List.length p.Baselines.Profiling.npes)
          in
          [
            bname b;
            Render.npe_pj mean;
            Render.npe_pj p.Baselines.Profiling.min_npe;
            Render.npe_pj p.Baselines.Profiling.max_npe;
          ]
        else
          let mean =
            List.fold_left ( +. ) 0. p.Baselines.Profiling.peaks
            /. float_of_int (List.length p.Baselines.Profiling.peaks)
          in
          [
            bname b;
            Render.mw mean;
            Render.mw p.Baselines.Profiling.min_peak;
            Render.mw p.Baselines.Profiling.max_peak;
          ])
      Context.all_benchmarks
  in
  Render.heading
    (Printf.sprintf
       "Figure 4.1%s: openMSP430 %s depends on application and inputs"
       (if energy then "b" else "a")
       (if energy then "normalized peak energy [pJ/cycle]" else "peak power [mW]"))
  ^ Render.table ~header:[ "app"; "mean"; "min"; "max" ] ~rows

(* ---------- chapter 5 ---------- *)

type comparison = {
  c_bench : string;
  c_design : float;
  c_input : float;  (** max observed *)
  c_gb_input : float;
  c_x : float;
}

let peak_comparisons ctx =
  List.map
    (fun b ->
      let p = Context.profile ctx b in
      let a = Context.analysis ctx b in
      {
        c_bench = bname b;
        c_design = Context.design_peak ctx;
        c_input = p.Baselines.Profiling.max_peak;
        c_gb_input = p.Baselines.Profiling.gb_peak;
        c_x = Context.x_peak a;
      })
    Context.all_benchmarks

let npe_comparisons ctx =
  List.map
    (fun b ->
      let p = Context.profile ctx b in
      let a = Context.analysis ctx b in
      {
        c_bench = bname b;
        c_design = Context.design_npe ctx;
        c_input = p.Baselines.Profiling.max_npe;
        c_gb_input = p.Baselines.Profiling.gb_npe;
        c_x = Context.x_npe a;
      })
    Context.all_benchmarks

let mean f xs = List.fold_left (fun acc x -> acc +. f x) 0. xs /. float_of_int (List.length xs)

let comparison_table ctx ~energy =
  let comps = if energy then npe_comparisons ctx else peak_comparisons ctx in
  let stress =
    Baselines.Stressmark.guardband
    *.
    if energy then
      (Context.stressmark_avg ctx).Baselines.Stressmark.avg_power
      *. Context.period ctx
    else (Context.stressmark_peak ctx).Baselines.Stressmark.peak_power
  in
  let fmt = if energy then Render.npe_pj else Render.mw in
  let rows =
    List.map
      (fun c ->
        [ c.c_bench; fmt c.c_design; fmt c.c_input; fmt c.c_gb_input; fmt c.c_x ])
      comps
    @ [
        [ "stressmark(GB)"; "-"; "-"; fmt stress; "-" ];
        [ "design_tool"; fmt (List.hd comps).c_design; "-"; "-"; "-" ];
      ]
  in
  let avg_vs f = 100. *. (1. -. mean (fun c -> c.c_x /. f c) comps) in
  let vs_design = avg_vs (fun c -> c.c_design) in
  let vs_gb_input = avg_vs (fun c -> c.c_gb_input) in
  let vs_stress = 100. *. (1. -. mean (fun c -> c.c_x /. stress) comps) in
  let unit_ = if energy then "pJ/cycle" else "mW" in
  let what = if energy then "peak energy (NPE)" else "peak power" in
  let figno = if energy then "5.2" else "5.1" in
  Render.heading
    (Printf.sprintf "Figure %s: %s requirements by technique [%s]" figno what unit_)
  ^ Render.table
      ~header:[ "app"; "design tool"; "input-based"; "GB input-based"; "X-based" ]
      ~rows
  ^ Printf.sprintf
      "\nX-based is lower than: design tool by %s%%, GB stressmark by %s%%, GB \
       input-based by %s%% (averages)\n(paper: %s)\n"
      (f2 vs_design) (f2 vs_stress) (f2 vs_gb_input)
      (if energy then "47%, 26%, 17%" else "27%, 26%, 15%")

let fig_5_1 ctx = comparison_table ctx ~energy:false
let fig_5_2 ctx = comparison_table ctx ~energy:true

let reduction_table ctx ~energy =
  let comps = if energy then npe_comparisons ctx else peak_comparisons ctx in
  let stress =
    Baselines.Stressmark.guardband
    *.
    if energy then
      (Context.stressmark_avg ctx).Baselines.Stressmark.avg_power
      *. Context.period ctx
    else (Context.stressmark_peak ctx).Baselines.Stressmark.peak_power
  in
  let avg_reduction baseline_of fraction =
    mean
      (fun c ->
        Sizing.reduction_pct ~baseline:(baseline_of c) ~ours:c.c_x ~fraction)
      comps
  in
  let row name baseline_of =
    name
    :: List.map (fun f -> f2 (avg_reduction baseline_of f)) Sizing.fractions
  in
  let what, tableno =
    if energy then ("battery volume", "5.2") else ("harvester area", "5.1")
  in
  Render.heading
    (Printf.sprintf
       "Table %s: %% %s reduction vs baselines, by processor contribution" tableno
       what)
  ^ Render.table
      ~header:
        ("Baseline"
        :: List.map (fun f -> Printf.sprintf "%.0f%%" (f *. 100.)) Sizing.fractions)
      ~rows:
        [
          row "GB-Input" (fun c -> c.c_gb_input);
          row "GB-Stress" (fun _ -> stress);
          row "Design Tool" (fun c -> c.c_design);
        ]

let table_5_1 ctx = reduction_table ctx ~energy:false
let table_5_2 ctx = reduction_table ctx ~energy:true

let fig_5_3 _ctx =
  let show items =
    String.concat "\n"
      (List.filter_map
         (function
           | Isa.Asm.I i -> Some ("  " ^ Isa.Insn.to_string i)
           | Isa.Asm.Label l -> Some (l ^ ":")
           | _ -> None)
         items)
  in
  let open Benchprogs.Bench.E in
  let opt1_before = [ mov (idx 6 4) (dreg 15) ] in
  let opt1_after, _ = Core.Optimize.apply Core.Optimize.Opt1_indexed_loads ~scratch:13 opt1_before in
  let opt2_before = [ pop 6 ] in
  let opt2_after, _ = Core.Optimize.apply Core.Optimize.Opt2_pop ~scratch:13 opt2_before in
  let opt3_before =
    [ mov (reg 5) (dabs Isa.Memmap.op2); mov (abs Isa.Memmap.reslo) (dreg 15) ]
  in
  let opt3_after, _ = Core.Optimize.apply Core.Optimize.Opt3_mult_nop ~scratch:13 opt3_before in
  Render.heading "Figure 5.3: instruction optimization transforms"
  ^ Printf.sprintf
      "OPT1 (register-indexed loads):\nbefore:\n%s\nafter:\n%s\n\n\
       OPT2 (POP split):\nbefore:\n%s\nafter:\n%s\n\n\
       OPT3 (NOP after multiplier start):\nbefore:\n%s\nafter:\n%s\n"
      (show opt1_before) (show opt1_after) (show opt2_before) (show opt2_after)
      (show opt3_before) (show opt3_after)

let fig_5_4 ctx =
  let rows =
    List.map
      (fun b ->
        let o = Context.optimization ctx b in
        [
          bname b;
          String.concat "+"
            (List.map
               (fun opt ->
                 match opt with
                 | Core.Optimize.Opt1_indexed_loads -> "1"
                 | Core.Optimize.Opt2_pop -> "2"
                 | Core.Optimize.Opt3_mult_nop -> "3")
               o.Optrun.chosen);
          Render.pct (Optrun.peak_reduction_pct o);
          Render.pct (Optrun.range_reduction_pct o);
        ])
      Context.all_benchmarks
  in
  let os = List.map (Context.optimization ctx) Context.all_benchmarks in
  Render.heading "Figure 5.4: peak power and dynamic-range reduction from optimizations"
  ^ Render.table
      ~header:[ "app"; "opts"; "peak reduction %"; "range reduction %" ]
      ~rows
  ^ Printf.sprintf "averages: peak %.1f%% (paper: 5%%, max 10%%), range %.1f%% (paper: 18%%, max 34%%)\n"
      (mean Optrun.peak_reduction_pct os)
      (mean Optrun.range_reduction_pct os)

let fig_5_5 ctx =
  let b = Benchprogs.Bench.find "mult" in
  let o = Context.optimization ctx b in
  let base = Context.analysis ctx b in
  Render.heading "Figure 5.5: mult peak power trace before/after optimization"
  ^ Printf.sprintf "before: peak %s mW\n%s\nafter:  peak %s mW (opts: %s)\n%s\n"
      (Render.mw o.Optrun.base_peak)
      (Render.series base.Core.Analyze.power_trace)
      (Render.mw o.Optrun.opt_peak)
      (String.concat ", " (List.map Core.Optimize.name o.Optrun.chosen))
      (Render.series o.Optrun.opt_analysis.Core.Analyze.power_trace)

let fig_5_6 ctx =
  let rows =
    List.map
      (fun b ->
        let o = Context.optimization ctx b in
        [
          bname b;
          Render.pct (Optrun.perf_degradation_pct o);
          Render.pct (Optrun.energy_overhead_pct o);
        ])
      Context.all_benchmarks
  in
  let os = List.map (Context.optimization ctx) Context.all_benchmarks in
  Render.heading "Figure 5.6: cost of the optimizations"
  ^ Render.table ~header:[ "app"; "perf degradation %"; "energy overhead %" ] ~rows
  ^ Printf.sprintf "averages: perf %.1f%% (paper: 1%%, max 5%%), energy %.1f%% (paper: 3%%)\n"
      (mean Optrun.perf_degradation_pct os)
      (mean Optrun.energy_overhead_pct os)

(* ---------- extensions beyond the paper's figures ---------- *)

(* WCEC comparison: the microarchitectural instruction-level energy
   model of the WCEC literature vs the gate-level co-analysis bound
   (paper, Chapter 7 discussion). *)
let extra_wcec ctx =
  let rows =
    List.map
      (fun b ->
        let img = Benchprogs.Bench.assemble b in
        let w =
          Baselines.Wcec.of_program ctx.Context.pa img
            ~input_sets:
              [
                b.Benchprogs.Bench.gen_inputs ~seed:2;
                b.Benchprogs.Bench.gen_inputs ~seed:8;
              ]
        in
        let a = Context.analysis ctx b in
        let x = Context.x_npe a in
        [
          bname b;
          Render.npe_pj w.Baselines.Wcec.npe;
          Render.npe_pj x;
          f2 (100. *. (1. -. (x /. w.Baselines.Wcec.npe)));
        ])
      Context.all_benchmarks
  in
  Render.heading
    "Extra: gate-level peak energy vs instruction-level WCEC model [pJ/cycle]"
  ^ Render.table
      ~header:[ "app"; "WCEC model"; "X-based"; "X lower by %" ]
      ~rows
  ^ "(instruction-level models cannot see pipeline state or operand values,
     so they must assume the worst class energy per instruction)
"

(* Chapter 6: multi-programming and interrupts. *)
let extra_multiprog ctx =
  let a1 = Context.analysis ctx (Benchprogs.Bench.find "intAVG") in
  let a2 = Context.analysis ctx (Benchprogs.Bench.find "tea8") in
  let union =
    Core.Multiprog.union_peak_bound ctx.Context.pa
      [ a1.Core.Analyze.tree; a2.Core.Analyze.tree ]
  in
  let isr =
    Core.Multiprog.combine_isr ~main:a1 ~isr:a2 ~max_invocations:4
      ~detection_power:2e-5
  in
  Render.heading "Extra: multi-program and interrupt analysis (Chapter 6)"
  ^ Printf.sprintf
      "intAVG peak %s mW, tea8 peak %s mW
       one-at-a-time requirement (max): %s mW
       union-of-activities bound:       %s mW (conservative)
       intAVG main + tea8 as ISR (<=4 invocations, 0.02 mW detection):
      \  peak %s mW, energy %.3f nJ
"
      (Render.mw a1.Core.Analyze.peak_power)
      (Render.mw a2.Core.Analyze.peak_power)
      (Render.mw (Core.Multiprog.max_peak [ a1; a2 ]))
      (Render.mw union)
      (Render.mw isr.Core.Multiprog.peak_power)
      (isr.Core.Multiprog.peak_energy *. 1e9)

(* ---------- registry ---------- *)

let all : (string * string * (Context.t -> string)) list =
  [
    ("table-1.1", "battery energy densities", table_1_1);
    ("table-1.2", "harvester power densities", table_1_2);
    ("fig-1.5", "active gates at peak, tHold vs PI", fig_1_5);
    ("fig-2.2a", "measured peak power per app/input", fun c -> fig_2_2 c ~energy:false);
    ("fig-2.2b", "measured NPE per app/input", fun c -> fig_2_2 c ~energy:true);
    ("fig-2.3", "instantaneous power trace, mult", fig_2_3);
    ("fig-3.2", "even/odd assignment worked example", fig_3_2);
    ("fig-3.3", "X-based peak power traces", fig_3_3);
    ("fig-3.4", "toggle-set superset validation", fig_3_4);
    ("fig-3.5", "trace bound validation", fig_3_5);
    ("fig-3.6", "cycles of interest, mult", fig_3_6);
    ("fig-4.1a", "openMSP430 peak power per app/input", fun c -> fig_4_1 c ~energy:false);
    ("fig-4.1b", "openMSP430 NPE per app/input", fun c -> fig_4_1 c ~energy:true);
    ("fig-5.1", "peak power by technique", fig_5_1);
    ("fig-5.2", "peak energy (NPE) by technique", fig_5_2);
    ("table-5.1", "harvester area reduction", table_5_1);
    ("table-5.2", "battery volume reduction", table_5_2);
    ("fig-5.3", "optimization transforms", fig_5_3);
    ("fig-5.4", "peak reduction from optimizations", fig_5_4);
    ("fig-5.5", "mult trace before/after optimization", fig_5_5);
    ("fig-5.6", "optimization costs", fig_5_6);
    ("table-6.1", "embedded processor features", table_6_1);
    ("extra-wcec", "gate-level vs instruction-level WCEC", extra_wcec);
    ("extra-multiprog", "multi-program and interrupt bounds", extra_multiprog);
  ]

let find id =
  match List.find_opt (fun (i, _, _) -> String.equal i id) all with
  | Some (_, _, f) -> f
  | None -> invalid_arg ("Experiments.find: unknown experiment " ^ id)

let run_all ctx =
  (* Most experiments consume the per-benchmark analyses; compute them
     across the pool up front so the (inherently ordered) rendering
     below finds everything cached. *)
  Context.prewarm_analyses ctx Context.all_benchmarks;
  String.concat "\n" (List.map (fun (_, _, f) -> f ctx) all)
