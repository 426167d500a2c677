(* kpath host benchmark.

     kbench.exe --workload W --seed N --seconds S --trace 0|1
     kbench.exe selftest BENCHMARK.json

   A run repeats units of workload W, each in a freshly forked process,
   until S seconds have passed (at least [min_units] units, the first a
   warm-up). With --trace 0 it reports the end-to-end metrics as medians
   over units; with --trace 1 every other unit is sampled (see Prof) and
   it reports per-layer self time, exact layer counters and their
   ratios. The last line of stdout is one JSON object: correct,
   attempted, failed, metrics; the line before it has the details. *)

(* {1 Workloads} *)

type size = {
  copy_bytes : int;  (** paper-copy source file *)
  test_ops : int;  (** paper-copy test-program ops per slowdown run *)
  fan_clients : int;
  fan_bytes : int;  (** per graph-fanout client *)
  chain_bytes : int;  (** filter-chain file *)
  shard_clients : int;
  shard_bytes : int;  (** per sharded-fanout client *)
}

let full =
  {
    copy_bytes = 8 * 1024 * 1024;
    test_ops = 2000;
    fan_clients = 64;
    fan_bytes = 2 * 1024 * 1024;
    chain_bytes = 32 * 1024 * 1024;
    shard_clients = 16384;
    shard_bytes = 16 * 1024;
  }

let tiny =
  {
    copy_bytes = 256 * 1024;
    test_ops = 100;
    fan_clients = 4;
    fan_bytes = 128 * 1024;
    chain_bytes = 512 * 1024;
    shard_clients = 64;
    shard_bytes = 16 * 1024;
  }

let workloads = [ "paper-copy"; "graph-fanout"; "filter-chain"; "sharded-fanout" ]

(* The seed picks filter-chain's xor key and nothing else. Client start
   times would be the other generated input, but they cannot move
   graph-fanout's results (its server accepts every client before it
   streams), and sharded-fanout's driver only takes a whole stagger in
   us, where 1 us against 2 us changes its host time by 25%. *)
let run_workload name size seed m =
  match name with
  | "paper-copy" ->
    Work.paper_copy m ~file_bytes:size.copy_bytes ~ops:size.test_ops
  | "graph-fanout" ->
    Work.graph_fanout m ~clients:size.fan_clients ~file_bytes:size.fan_bytes
      ~bandwidth:40e6
  | "filter-chain" ->
    Work.filter_chain m ~file_bytes:size.chain_bytes
      ~key:(1 + (Hashtbl.hash seed mod 255))
  | "sharded-fanout" ->
    (* One domain: at K = 2 on a 2-vCPU host the scaled run time varied
       by 13% across runs against 6% at K = 1, and the second domain
       adds only the domain fan-out. *)
    Work.sharded_fanout m ~clients:size.shard_clients
      ~file_bytes:size.shard_bytes ~domains:1
  | w -> invalid_arg ("unknown workload " ^ w)

(* {1 One unit in a forked child} *)

(* Throughput-oriented GC for the measurement children (as in the bench
   sweeps): a 4 Mword minor heap and a relaxed space overhead. *)
let gc_minor_heap_words = 4 * 1024 * 1024
let gc_space_overhead = 200

type unit_out = {
  u_meter : Work.meter;
  u_res : Work.result;
  u_rss_kb : int;
  u_minor_words : float;
  u_majors : int;
  u_samples : int array option;  (** per-layer samples of a traced unit *)
  u_probe_s : float;  (** mean probe time around the unit *)
}

let vm_hwm_kb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> 0
      | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" Fun.id
      | _ -> scan ()
    in
    Fun.protect ~finally:(fun () -> close_in ic) scan

(* {2 Host speed probe}

   On a shared host the CPU's speed drifts by tens of percent over
   seconds to minutes, whatever runs on it. On a 2-vCPU Xeon VM the
   spread (quartile distance over median) of a workload's median unit
   time across runs ranged from 6% to 55%, which swamps the differences
   the benchmark exists to show. Each unit therefore runs a fixed
   stdlib-only probe before and after its work, and every host time the
   benchmark reports is scaled by [probe_ref_s / probe time]: it is
   given in seconds of a host that runs the probe in [probe_ref_s].
   Scaled, the spreads ranged from 2% to 22%; in most batches of runs
   the scaling removed more than half of the spread, in one it widened
   it. The probe is shaped like the simulator's host work (allocation,
   pointer-chasing hash-table lookups on a heap larger than the caches,
   block copies), because interference slows such code about twice as
   much as a tight arithmetic loop. It runs no kpath code, so a change
   to kpath moves the scaled times as it moves the raw ones. The detail
   line keeps the raw times. *)

let probe_ref_s = 0.03

type cell = { mutable v : int; next : int }

let probe () =
  let t0 = Unix.gettimeofday () in
  let n = 1 lsl 16 in
  let h = Hashtbl.create n in
  for i = 0 to n - 1 do
    Hashtbl.replace h i { v = i; next = ((i * 40503) + 7) land (n - 1) }
  done;
  let k = ref 0 and live = ref [] in
  for r = 1 to 300_000 do
    let c = Hashtbl.find h !k in
    c.v <- c.v + r;
    k := c.next;
    if r land 7 = 0 then
      live :=
        (r, c.v) :: (match !live with _ :: t when r land 1023 = 0 -> t | l -> l)
  done;
  let len = 1 lsl 18 in
  let src = Bytes.make len 'k' and dst = Bytes.create len in
  for _ = 1 to 20 do Bytes.blit src 0 dst 0 len done;
  ignore (Sys.opaque_identity (!live, dst));
  Unix.gettimeofday () -. t0

let run_unit name size seed ~traced =
  let before = probe () in
  let m = { Work.setup_s = 0.0; timed_s = 0.0; cpu_s = 0.0 } in
  let s0 = Gc.quick_stat () in
  if traced then Prof.start ();
  let res =
    Fun.protect ~finally:(fun () -> if traced then Prof.stop ())
      (fun () -> run_workload name size seed m)
  in
  let s1 = Gc.quick_stat () in
  let rss_kb = vm_hwm_kb () in
  let samples = if traced then Some (Prof.attribute ()) else None in
  let after = probe () in
  {
    u_meter = m;
    u_res = res;
    u_rss_kb = rss_kb;
    u_minor_words = s1.Gc.minor_words -. s0.Gc.minor_words;
    u_majors = s1.Gc.major_collections - s0.Gc.major_collections;
    u_samples = samples;
    u_probe_s = (before +. after) /. 2.0;
  }

let in_child (f : unit -> 'a) : ('a, string) result =
  flush stdout;
  flush stderr;
  let rd, wr = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
    Unix.close rd;
    Gc.set
      { (Gc.get ()) with
        Gc.minor_heap_size = gc_minor_heap_words;
        space_overhead = gc_space_overhead;
      };
    let r = try Ok (f ()) with e -> Error (Printexc.to_string e) in
    let oc = Unix.out_channel_of_descr wr in
    Marshal.to_channel oc r [];
    flush oc;
    Unix._exit 0
  | pid ->
    Unix.close wr;
    let ic = Unix.in_channel_of_descr rd in
    let r =
      try (Marshal.from_channel ic : ('a, string) result)
      with End_of_file | Failure _ -> Error "unit process died"
    in
    close_in ic;
    ignore (Unix.waitpid [] pid);
    r

(* {1 Metrics} *)

let e2e_metrics =
  [
    ("mb_per_s", "MB/s");
    ("cpu_ms_per_mb", "ms/MB");
    ("setup_s", "s");
    ("peak_rss_mb", "MB");
    ("run_s", "s");
    ("ok_ratio", "ratio");
  ]

let counters =
  [
    "engine.events"; "vm.insns"; "tcp.segs_out"; "cache.hits"; "cache.misses";
    "sched.dispatches"; "cpu.ctx_switches"; "cpu.interrupts";
    "cache.cluster_reads"; "cache.cluster_writes"; "disk.requests";
    "fs.bmap_range"; "fs.blocks_allocated"; "graph.blocks_aliased";
    "graph.writes_issued"; "graph.prog_runs"; "netif.tx_frames"; "tcp.retx";
    "graph.prog_faults";
  ]

(* Self time of a layer over its own count. *)
let rates =
  [
    ("engine.ns_per_event", "sim", [ "engine.events" ]);
    ("vm.ns_per_insn", "vm", [ "vm.insns" ]);
    ("net.ns_per_segment", "net", [ "tcp.segs_out" ]);
    ("buf.ns_per_lookup", "buf", [ "cache.hits"; "cache.misses" ]);
    ("proc.ns_per_dispatch", "proc", [ "sched.dispatches" ]);
  ]

let layer_metrics =
  List.map (fun l -> (l ^ ".self_s", "s")) (Array.to_list Prof.layers)
  @ [ ("trace.wall_s", "s"); ("trace.samples", "count"); ("trace.overhead", "x") ]
  @ List.map (fun c -> (c, "count")) counters
  @ [ ("cache.hit_ratio", "ratio") ]
  @ List.map (fun (n, _, _) -> (n, "ns")) rates
  @ [
      ("gc.minor_words_per_kb", "words/KB");
      ("gc.major_collections", "count");
      ("sim.srv_busy_over_elapsed", "ratio");
    ]

let median = function
  | [] -> 0.0
  | l ->
    let a = Array.of_list l in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let mean = function
  | [] -> 0.0
  | l -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)

let ratio a b = if b > 0.0 then a /. b else 0.0
let mb u = float_of_int u.u_res.Work.bytes /. 1048576.0

(* Host times of a unit, scaled to the reference probe speed. *)
let scaled u x = x *. probe_ref_s /. u.u_probe_s
let timed u = scaled u u.u_meter.Work.timed_s
let wall u = scaled u (u.u_meter.Work.setup_s +. u.u_meter.Work.timed_s)

let end_to_end units ~attempted ~failed =
  let ok = List.filter (fun u -> u.u_res.Work.bytes > 0) units in
  let med f l = median (List.map f l) in
  [
    ("mb_per_s", med (fun u -> mb u /. timed u) ok);
    ("cpu_ms_per_mb", med (fun u -> scaled u u.u_meter.Work.cpu_s *. 1000.0 /. mb u) ok);
    ("setup_s", med (fun u -> scaled u u.u_meter.Work.setup_s) units);
    ("peak_rss_mb", med (fun u -> float_of_int u.u_rss_kb /. 1024.0) units);
    ("run_s", med timed units);
    ("ok_ratio", 1.0 -. ratio (float_of_int failed) (float_of_int attempted));
  ]

(* Per-layer figures: self time from the pooled samples of the traced
   units, shared out so the layers sum to the mean traced wall time
   (set-up plus timed phase, probe-scaled); counters are exact and
   identical in every unit of one seed, so any unit's values serve. *)
let per_layer units =
  let traced = List.filter (fun u -> u.u_samples <> None) units in
  let plain = List.filter (fun u -> u.u_samples = None) units in
  let nl = Array.length Prof.layers in
  let total = Array.make nl 0 in
  List.iter
    (fun u ->
      Option.iter (Array.iteri (fun i c -> total.(i) <- total.(i) + c)) u.u_samples)
    traced;
  let nsamples = Array.fold_left ( + ) 0 total in
  let twall = mean (List.map wall traced) in
  let share i =
    if nsamples = 0 then if i = Prof.other then 1.0 else 0.0
    else float_of_int total.(i) /. float_of_int nsamples
  in
  let self = Array.init nl (fun i -> twall *. share i) in
  let self_of l = self.(Option.get (Prof.index l)) in
  let u0 = List.hd units in
  let count c =
    float_of_int (Option.value (List.assoc_opt c u0.u_res.Work.counts) ~default:0)
  in
  let hits = count "cache.hits" and misses = count "cache.misses" in
  let med f = median (List.map f units) in
  List.mapi (fun i l -> (l ^ ".self_s", self.(i))) (Array.to_list Prof.layers)
  @ [
      ("trace.wall_s", twall);
      ("trace.samples", float_of_int nsamples);
      ("trace.overhead", ratio (median (List.map wall traced)) (median (List.map wall plain)));
    ]
  @ List.map (fun c -> (c, count c)) counters
  @ [ ("cache.hit_ratio", ratio hits (hits +. misses)) ]
  @ List.map
      (fun (n, l, cs) ->
        (n, ratio (self_of l *. 1e9) (List.fold_left (fun a c -> a +. count c) 0.0 cs)))
      rates
  @ [
      ( "gc.minor_words_per_kb",
        med (fun u ->
            ratio u.u_minor_words (float_of_int u.u_res.Work.bytes /. 1024.0)) );
      ("gc.major_collections", med (fun u -> float_of_int u.u_majors));
      ("sim.srv_busy_over_elapsed", med (fun u -> u.u_res.Work.busy_over_elapsed));
    ]

(* {1 Output} *)

let json_num v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let json_str s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | ('"' | '\\') as c -> Buffer.add_char b '\\'; Buffer.add_char b c
      | c when c < ' ' || c > '~' -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let result_line ~correct ~attempted ~failed metrics units_of =
  let body =
    List.map
      (fun (n, v) ->
        Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_str n) (json_num v)
          (json_str (List.assoc n units_of)))
      metrics
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed (String.concat ", " body)

type run = {
  r_units : unit_out list;
  r_attempted : int;
  r_failed : int;
  r_digests : int list;
  r_errors : string list;
}

(* Repeat units until [seconds] have passed and at least [min_units]
   ran. The first unit is a warm-up: it is checked like the others but
   left out of the figures (it often ran 20-100% slower than the rest).
   Traced runs then alternate traced and untraced units. A unit that
   raises counts all its operations as failed, and so does one whose
   sim_digest differs from the one most units agree on. *)
let run_units name size seed ~seconds ~trace ~min_units =
  let t0 = Unix.gettimeofday () in
  let rec go i acc =
    if i >= min_units && Unix.gettimeofday () -. t0 >= seconds then List.rev acc
    else begin
      let traced = trace && i mod 2 = 0 && i > 0 in
      go (i + 1) (in_child (fun () -> run_unit name size seed ~traced) :: acc)
    end
  in
  let outs = go 0 [] in
  let units = List.filter_map Result.to_option outs in
  let errors =
    List.filter_map (function Error e -> Some e | Ok _ -> None) outs
  in
  let digests = List.map (fun u -> u.u_res.Work.digest) units in
  let agreeing d = List.length (List.filter (( = ) d) digests) in
  let ref_digest =
    List.fold_left (fun b d -> if agreeing d > agreeing b then d else b)
      (match digests with d :: _ -> d | [] -> 0) digests
  in
  let per_unit_ops = match units with u :: _ -> u.u_res.Work.ops | [] -> 1 in
  let attempted =
    (List.length errors * per_unit_ops)
    + List.fold_left (fun a u -> a + u.u_res.Work.ops) 0 units
  in
  let failed =
    (List.length errors * per_unit_ops)
    + List.fold_left
        (fun a u ->
          let r = u.u_res in
          a + if r.Work.digest <> ref_digest then r.Work.ops else r.Work.bad_ops)
        0 units
  in
  { r_units = units; r_attempted = attempted; r_failed = failed;
    r_digests = digests; r_errors = errors }

(* Everything the result line leaves out: digests, raw (unscaled) unit
   times, GC settings and which counters the workload cannot see. *)
let detail_line name seed run =
  let unavailable =
    match run.r_units with
    | u :: _ ->
      List.filter (fun c -> not (List.mem_assoc c u.u_res.Work.counts)) counters
    | [] -> counters
  in
  let list f l = String.concat ", " (List.map f l) in
  let unit_s u =
    Printf.sprintf "[%.4f, %.4f, %.5f]" u.u_meter.Work.setup_s
      u.u_meter.Work.timed_s u.u_probe_s
  in
  Printf.sprintf
    "{\"workload\": %s, \"seed\": %d, \"units\": %d, \"sim_digest\": [%s], \
     \"errors\": [%s], \"unavailable_counters\": [%s], \"gc\": \
     {\"minor_heap_words\": %d, \"space_overhead\": %d}, \"probe_ref_s\": %g, \
     \"raw_setup_timed_probe_s\": [%s], \"note\": %s}"
    (json_str name) seed (List.length run.r_units)
    (list (fun d -> json_str (Printf.sprintf "%016x" d))
       (List.sort_uniq compare run.r_digests))
    (list json_str run.r_errors) (list json_str unavailable)
    gc_minor_heap_words gc_space_overhead probe_ref_s (list unit_s run.r_units)
    (json_str
       "host times are scaled to a host running the probe in probe_ref_s; \
        self_s shares come from SIGPROF samples taken at OCaml poll points \
        and are approximate; unavailable counters read 0")

let bench name size seed ~seconds ~trace =
  let run =
    run_units name size seed ~seconds ~trace ~min_units:(if trace then 5 else 4)
  in
  let correct = run.r_failed = 0 && run.r_units <> [] in
  let figured = match run.r_units with _ :: (_ :: _ as l) -> l | l -> l in
  let metrics, units_of =
    if figured = [] then ([], [])
    else if trace then (per_layer figured, layer_metrics)
    else
      ( end_to_end figured ~attempted:run.r_attempted ~failed:run.r_failed,
        e2e_metrics )
  in
  (run, result_line ~correct ~attempted:run.r_attempted ~failed:run.r_failed
          metrics units_of, metrics)

(* {1 Self-test} *)

(* The metric names listed in one array of BENCHMARK.json. *)
let names_in json key =
  let find_from i sub =
    let n = String.length sub in
    let rec go i =
      if i + n > String.length json then raise Not_found
      else if String.sub json i n = sub then i
      else go (i + 1)
    in
    go i
  in
  let start = find_from 0 (Printf.sprintf "%S" key) in
  let stop = find_from start "]" in
  let rec collect i acc =
    match find_from i "\"name\": \"" with
    | exception Not_found -> List.rev acc
    | j when j > stop -> List.rev acc
    | j ->
      let k = j + 9 in
      let e = String.index_from json k '"' in
      collect e (String.sub json k (e - k) :: acc)
  in
  collect start []

(* Tiny sizes of every workload, both modes: each must verify, emit
   exactly the metrics BENCHMARK.json names, and (traced) have per-layer
   self times summing to the traced wall time within 0.1%. *)
let selftest path =
  let json = In_channel.with_open_bin path In_channel.input_all in
  let fail fmt = Printf.ksprintf failwith fmt in
  let same_names what listed emitted =
    let s = List.sort compare in
    if s listed <> s emitted then
      fail "%s: BENCHMARK.json lists [%s], run emits [%s]" what
        (String.concat " " (s listed)) (String.concat " " (s emitted))
  in
  List.iter
    (fun w ->
      List.iter
        (fun trace ->
          let run, _, metrics = bench w tiny 7 ~seconds:0.0 ~trace in
          if run.r_failed <> 0 || run.r_errors <> [] || run.r_units = [] then
            fail "%s: %d of %d operations failed [%s]" w run.r_failed
              run.r_attempted (String.concat "; " run.r_errors);
          let key = if trace then "per_layer" else "end_to_end" in
          same_names (w ^ " " ^ key) (names_in json key) (List.map fst metrics);
          if trace then begin
            let wall = List.assoc "trace.wall_s" metrics in
            let sum =
              Array.fold_left
                (fun a l -> a +. List.assoc (l ^ ".self_s") metrics)
                0.0 Prof.layers
            in
            if Float.abs (sum -. wall) > 1e-3 *. wall then
              fail "%s: self_s sums to %g, traced wall is %g" w sum wall
          end;
          Printf.printf "selftest %s trace=%b: ok (%d units)\n" w trace
            (List.length run.r_units))
        [ false; true ])
    workloads

let () =
  match Array.to_list Sys.argv with
  | [ _; "selftest"; path ] -> selftest path
  | _ ->
    let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
    Arg.parse
      [
        ("--workload", Arg.Set_string workload, " one of " ^ String.concat ", " workloads);
        ("--seed", Arg.Set_int seed, " input seed");
        ("--seconds", Arg.Set_int seconds, " how long to repeat units");
        ("--trace", Arg.Set_int trace, " 1: per-layer metrics from a traced run");
      ]
      (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
      "kbench.exe --workload W --seed N --seconds S --trace 0|1";
    if not (List.mem !workload workloads) then begin
      prerr_endline ("kbench: unknown workload " ^ !workload);
      exit 2
    end;
    let run, line, _ =
      bench !workload full !seed ~seconds:(float_of_int !seconds) ~trace:(!trace = 1)
    in
    print_endline (detail_line !workload !seed run);
    print_endline line
