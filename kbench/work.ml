(* The four benchmark workloads, each one unit of work: set-up (machines,
   mkfs, source files, program compilation), the timed phase, then the
   benchmark's own byte-for-byte check of what was delivered. Set-up and
   timed phases are clocked separately; sampling (traced runs) covers
   both and is paused during the check. *)

open Kpath_sim
open Kpath_proc
open Kpath_buf
open Kpath_fs
open Kpath_net
open Kpath_kernel
module E = Kpath_workloads.Experiments
module P = Kpath_workloads.Programs
module G = Kpath_graph.Graph

type meter = {
  mutable setup_s : float;
  mutable timed_s : float;
  mutable cpu_s : float;  (** host user+sys of the timed phase *)
}

type result = {
  bytes : int;  (** payload bytes delivered and verified *)
  ops : int;  (** copies or clients attempted *)
  bad_ops : int;  (** of which delivered wrong or missing bytes *)
  digest : int;  (** over the simulated outputs *)
  busy_over_elapsed : float;
      (** simulated server CPU busy over simulated elapsed time *)
  counts : (string * int) list;
      (** exact layer counters; a name left out is unavailable *)
}

let cpu_now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let setup m f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  m.setup_s <- m.setup_s +. (Unix.gettimeofday () -. t0);
  r

let timed m f =
  let t0 = Unix.gettimeofday () and c0 = cpu_now () in
  let r = f () in
  m.timed_s <- m.timed_s +. (Unix.gettimeofday () -. t0);
  m.cpu_s <- m.cpu_s +. (cpu_now () -. c0);
  r

let check = Prof.paused

(* {1 Digests and counters} *)

let mix h v = (h lxor v) * 0x100000001b3 land max_int
let mixf h f = mix h (Int64.to_int (Int64.bits_of_float f))
let mixt h (t : Time.t) = mix h (Time.to_ns t)
let digest0 = 0x2545f4914f6cdd1d

let mix_cpu h m =
  let c = Sched.cpu (Machine.sched m) in
  List.fold_left mixt h [ Cpu.user c; Cpu.sys c; Cpu.intr c; Cpu.ctx c ]

(* Sum counter lists by name. *)
let merge lists =
  let tbl = Hashtbl.create 32 in
  List.iter
    (List.iter (fun (k, v) ->
         Hashtbl.replace tbl k (v + Option.value (Hashtbl.find_opt tbl k) ~default:0)))
    lists;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []

let machine_counts m =
  let sched = Machine.sched m in
  let cpu = Sched.cpu sched in
  let cache = Cache.stats (Machine.cache m) in
  let g = G.ctx_stats (Machine.graph_ctx m) in
  [
    ("sched.dispatches", Stats.get (Sched.stats sched) "sched.dispatches");
    ("cpu.ctx_switches", Cpu.context_switches cpu);
    ("cpu.interrupts", Cpu.interrupts cpu);
    ("cache.hits", Stats.get cache "cache.hits");
    ("cache.misses", Stats.get cache "cache.misses");
    ("cache.cluster_reads", Stats.get cache "cache.cluster_reads");
    ("cache.cluster_writes", Stats.get cache "cache.cluster_writes");
    ("graph.blocks_aliased", Stats.get g "graph.blocks_aliased");
    ("graph.writes_issued", Stats.get g "graph.writes_issued");
    ("graph.prog_runs", Stats.get g "graph.prog_runs");
    ("graph.prog_faults", Stats.get g "graph.prog_faults");
    ("vm.insns", Stats.get g "graph.prog_insns");
  ]

let fs_counts fs =
  let s = Fs.stats fs in
  [
    ("fs.bmap_range", Stats.get s "fs.bmap_range");
    ("fs.blocks_allocated", Stats.get s "fs.blocks_allocated");
  ]

let drive_counts d =
  let n =
    match d with
    | Machine.Scsi d -> Kpath_dev.Disk.serviced d
    | Machine.Ram r -> Kpath_dev.Ramdisk.serviced r
  in
  [ ("disk.requests", n) ]

let no_net = [ ("netif.tx_frames", 0); ("tcp.segs_out", 0); ("tcp.retx", 0) ]

let fs_at m path =
  match Machine.resolve m path with
  | Some (fs, _) -> fs
  | None -> failwith ("no filesystem at " ^ path)

(* Counters of one [Experiments.make_setup] machine. *)
let setup_counts (s : E.setup) =
  let m = s.E.machine in
  merge
    ([ ("engine.events", Engine.events_fired (Machine.engine m)) ]
    :: machine_counts m :: no_net
    :: fs_counts (fs_at m "/src") :: fs_counts (fs_at m "/dst")
    :: List.map drive_counts s.E.drives)

let utilization m =
  Cpu.utilization (Sched.cpu (Machine.sched m)) ~now:(Machine.now m)

let verify_dst (s : E.setup) ~expect =
  let ok = ref false in
  let _ =
    P.spawn_verifier s.E.machine ~path:s.E.dst_path ~expect_bytes:expect
      (fun v -> ok := v)
  in
  Machine.run s.E.machine;
  !ok

(* {1 paper-copy: Tables 1 and 2} *)

let disks = [ `Ram; `Rz56; `Rz58 ]

(* One round: the six cold copies of Table 2 and the six paced
   test-program slowdown runs of Table 1 (2000 x 1 ms ops, copies paced
   to 1 MB/s), every copy on freshly built machines. *)
let paper_copy m ~file_bytes ~ops =
  let counts = ref [] and digest = ref digest0 in
  let bytes = ref 0 and bad = ref 0 and nops = ref 0 and busy = ref 0.0 in
  let spawn (s : E.setup) mode ?pace ?loop_until stats =
    let src = s.E.src_path and dst = s.E.dst_path in
    ignore
      (match mode with
       | `Cp -> P.spawn_cp s.E.machine ~src ~dst ?pace ?loop_until stats
       | `Scp -> P.spawn_scp s.E.machine ~src ~dst ?pace ?loop_until stats)
  in
  let fresh disk =
    setup m (fun () ->
        let s = E.make_setup ~disk ~file_bytes () in
        E.cold_caches s;
        s)
  in
  let finish (s : E.setup) (stats : P.copy_stats) =
    let mach = s.E.machine in
    counts := setup_counts s :: !counts;
    busy := Float.max !busy (utilization mach);
    digest := mix_cpu !digest mach;
    digest := mix !digest (Engine.events_fired (Machine.engine mach));
    digest := mix !digest stats.P.bytes_copied;
    incr nops;
    if
      stats.P.copies_done >= 1
      && check (fun () -> verify_dst s ~expect:file_bytes)
    then bytes := !bytes + stats.P.bytes_copied
    else incr bad
  in
  List.iter
    (fun disk ->
      List.iter
        (fun mode ->
          let s = fresh disk in
          let stats = P.fresh_copy_stats () in
          timed m (fun () ->
              spawn s mode stats;
              Machine.run s.E.machine);
          let secs =
            Time.to_sec_f
              (Time.diff stats.P.copy_finished stats.P.copy_started)
          in
          digest := mixf !digest secs;
          digest :=
            mixf !digest (float_of_int stats.P.bytes_copied /. 1024.0 /. secs);
          finish s stats)
        [ `Scp; `Cp ])
    disks;
  let idle = timed m (fun () -> E.idle_seconds ~ops) in
  digest := mixf !digest idle;
  List.iter
    (fun disk ->
      List.iter
        (fun mode ->
          let s = fresh disk in
          let stats = P.fresh_copy_stats () in
          let test = P.fresh_test_stats () in
          let stop = ref false in
          timed m (fun () ->
              spawn s mode ~pace:1.0e6 ~loop_until:stop stats;
              let t = P.spawn_test_program s.E.machine ~ops test in
              Sched.exit_hook t (fun () -> stop := true);
              Machine.run s.E.machine);
          (match test.P.test_finished with
           | Some t ->
             let f =
               Time.to_sec_f (Time.diff t test.P.test_started) /. idle
             in
             digest := mixf !digest f
           | None -> failwith "test program did not finish");
          finish s stats)
        [ `Cp; `Scp ])
    disks;
  {
    bytes = !bytes;
    ops = !nops;
    bad_ops = !bad;
    digest = !digest;
    busy_over_elapsed = !busy;
    counts = merge !counts;
  }

(* {1 graph-fanout: one file spliced to many TCP clients} *)

(* [Experiments.measure_fanout]'s shape with its set-up split out: a
   server machine (RZ58) splices one cold file to [clients] reader
   processes on a client machine over one segment, every block read
   from the device once and aliased to every connection. *)
let graph_fanout m ~clients ~file_bytes ~bandwidth =
  let cfg = Config.decstation_5000_200 in
  let engine, server, client, srv_if, cli_if, drive, fs =
    setup m (fun () ->
        let engine =
          Engine.create ~backend:cfg.Config.sim_engine
            ~tick:cfg.Config.callout_tick ()
        in
        let server = Machine.create ~config:cfg ~engine () in
        let client = Machine.create ~config:cfg ~engine () in
        let net = Netif.create_net ~bandwidth engine in
        let srv_if = Netif.attach net ~name:"srv0" ~intr:(Machine.intr server) () in
        let cli_if = Netif.attach net ~name:"cli0" ~intr:(Machine.intr client) () in
        let nblocks = max 4096 ((file_bytes / cfg.Config.block_size) + 64) in
        let drive =
          Machine.make_drive server ~name:"rz58-0" ~kind:`Rz58 ~nblocks ()
        in
        let fs = ref None in
        let _ =
          Machine.spawn server ~name:"mkfs" (fun () ->
              let f =
                Fs.mkfs ~cache:(Machine.cache server) (Machine.blkdev drive)
                  ~ninodes:16
              in
              Machine.mount server "/" f;
              fs := Some f;
              let env = Syscall.make_env server in
              let fd =
                Syscall.openf env "/data" [ Syscall.O_CREAT; Syscall.O_WRONLY ]
              in
              let chunk = Bytes.create 65536 in
              let rec fill off =
                if off < file_bytes then begin
                  let n = min 65536 (file_bytes - off) in
                  P.fill_pattern chunk ~file_off:off;
                  ignore (Syscall.write env fd chunk ~pos:0 ~len:n);
                  fill (off + n)
                end
              in
              fill 0;
              Syscall.fsync env fd;
              Syscall.close env fd;
              Cache.invalidate_dev (Machine.cache server) (Machine.blkdev drive))
        in
        Machine.run server;
        match !fs with
        | Some fs -> (engine, server, client, srv_if, cli_if, drive, fs)
        | None -> failwith "graph-fanout: mkfs did not run")
  in
  let received = Array.make clients 0 in
  let corrupt = Array.make clients 0 in
  let done_at = Array.make clients 0 in
  let tcp_stats = ref [] in
  let started = ref Time.zero and cpu_mark = ref Time.zero in
  let server_cpu = Sched.cpu (Machine.sched server) in
  timed m (fun () ->
      let _srv =
        Machine.spawn server ~name:"fanout-server" (fun () ->
            let env = Syscall.make_env server in
            let l = Syscall.tcp_listen env srv_if ~port:80 in
            let cfds = List.init clients (fun _ -> Syscall.tcp_accept env l) in
            List.iter
              (fun fd -> tcp_stats := Tcp.stats (Syscall.tcp_conn env fd) :: !tcp_stats)
              cfds;
            started := Engine.now engine;
            cpu_mark := Cpu.busy server_cpu;
            let src = Syscall.openf env "/data" [ Syscall.O_RDONLY ] in
            ignore
              (Syscall.splice_graph env ~srcs:[ src ] ~dsts:cfds
                 Syscall.splice_eof);
            Syscall.close env src;
            List.iter (Syscall.close env) cfds)
      in
      for i = 0 to clients - 1 do
        ignore
          (Machine.spawn client ~name:"client" (fun () ->
               let env = Syscall.make_env client in
               let rec connect attempts =
                 match
                   Syscall.tcp_connect env cli_if ~port:(1000 + i)
                     ~dst:{ Tcp.a_if = Netif.id srv_if; a_port = 80 }
                     ~rcvbuf:(512 * 1024) ()
                 with
                 | fd -> fd
                 | exception Errno.Unix_error (Errno.EIO, _) when attempts > 0 ->
                   connect (attempts - 1)
               in
               let fd = connect 5 in
               tcp_stats := Tcp.stats (Syscall.tcp_conn env fd) :: !tcp_stats;
               let buf = Bytes.create 8192 in
               let rec drain () =
                 let n = Syscall.read env fd buf ~pos:0 ~len:8192 in
                 if n > 0 then begin
                   corrupt.(i) <-
                     corrupt.(i)
                     + P.pattern_mismatches buf ~pos:0 ~len:n
                         ~file_off:received.(i);
                   received.(i) <- received.(i) + n;
                   drain ()
                 end
               in
               drain ();
               done_at.(i) <- Time.to_ns (Engine.now engine);
               Syscall.close env fd))
      done;
      Machine.run server);
  let finished = Array.fold_left max 0 done_at in
  let elapsed = Time.to_sec_f (Time.diff (Time.ns finished) !started) in
  let busy = Time.diff (Cpu.busy server_cpu) !cpu_mark in
  let digest = Array.fold_left mix digest0 done_at in
  let digest =
    List.fold_left mix_cpu (mix digest (Engine.events_fired engine)) [ server; client ]
  in
  let ok i = corrupt.(i) = 0 && received.(i) = file_bytes in
  let good = List.filter ok (List.init clients Fun.id) in
  let tcp name = List.fold_left (fun a s -> a + Stats.get s name) 0 !tcp_stats in
  let netif_tx = List.fold_left (fun a nif -> a + Stats.get (Netif.stats nif) "netif.tx") 0 [ srv_if; cli_if ] in
  {
    bytes = List.length good * file_bytes;
    ops = clients;
    bad_ops = clients - List.length good;
    digest;
    busy_over_elapsed = Time.to_sec_f busy /. elapsed;
    counts =
      merge
        [
          [ ("engine.events", Engine.events_fired engine) ];
          machine_counts server;
          machine_counts client;
          fs_counts fs;
          drive_counts drive;
          [
            ("netif.tx_frames", netif_tx);
            ("tcp.segs_out", tcp "tcp.segs_out");
            ("tcp.retx", tcp "tcp.retx");
          ];
        ];
  }

(* {1 filter-chain: file-to-file copy through five verified programs} *)

(* The two xor_stream passes use one key and compose to the identity, so
   the destination must equal the source pattern. *)
let filter_chain m ~file_bytes ~key =
  let s, progs =
    setup m (fun () ->
        let s = E.make_setup ~disk:`Rz58 ~file_bytes () in
        E.cold_caches s;
        let progs =
          Kpath_vm.Samples.
            [
              checksum ();
              xor_stream ~key;
              histogram ();
              dedup_chunks ~bits:11;
              xor_stream ~key;
            ]
        in
        List.iter (G.preload_prog (Machine.graph_ctx s.E.machine)) progs;
        (s, progs))
  in
  let mach = s.E.machine in
  let engine = Machine.engine mach in
  let digest = ref digest0 in
  timed m (fun () ->
      let _ =
        Machine.spawn mach ~name:"filter-copy" (fun () ->
            let env = Syscall.make_env mach in
            let src = Syscall.openf env s.E.src_path [ Syscall.O_RDONLY ] in
            let dst =
              Syscall.openf env s.E.dst_path [ Syscall.O_CREAT; Syscall.O_WRONLY ]
            in
            let t0 = Engine.now engine in
            let g =
              Syscall.splice_graph_start env ~srcs:[ src ] ~dsts:[ dst ]
                ~filters:(List.map (fun p -> G.Prog p) progs)
                Syscall.splice_eof
            in
            (match G.wait g with
             | Ok _ -> ()
             | Error e -> failwith ("filter-chain: " ^ e));
            digest := mixt !digest (Time.diff (Engine.now engine) t0);
            List.iter
              (fun e ->
                digest := mix !digest (Option.value (G.edge_checksum e) ~default:0);
                List.iter
                  (fun (k, v) -> digest := mix (mix !digest k) v)
                  (G.edge_emits e))
              (G.edges g);
            Syscall.fsync env dst;
            Syscall.close env src;
            Syscall.close env dst)
      in
      Machine.run mach);
  let counts = setup_counts s in
  let digest = mix (mix_cpu !digest mach) (Engine.events_fired engine) in
  let ok = check (fun () -> verify_dst s ~expect:file_bytes) in
  {
    bytes = (if ok then file_bytes else 0);
    ops = 1;
    bad_ops = (if ok then 0 else 1);
    digest;
    busy_over_elapsed = utilization mach;
    counts;
  }

(* {1 sharded-fanout: Experiments.measure_fanout_sharded} *)

(* The driver keeps its machines to itself, so only its merged event
   count is available as a layer counter. Its set-up (machines, mkfs,
   source file, staging pass) runs inside every shard and cannot be
   timed apart; [setup_s] is the wall time of a one-client, one-domain
   run of the same driver, which is that fixed cost. *)
let sharded_fanout m ~clients ~file_bytes ~domains =
  let run clients domains =
    E.measure_fanout_sharded ~clients ~domains ~file_bytes ~bandwidth:40e6 ()
  in
  ignore (setup m (fun () -> run 1 1));
  let r = timed m (fun () -> run clients domains) in
  let ok = r.E.fsh_verified in
  let digest =
    List.fold_left mix digest0 [ r.E.fsh_digest; r.E.fsh_events ]
  in
  let digest = mixf (mixf digest r.E.fsh_seconds) r.E.fsh_server_cpu_sec in
  {
    bytes = (if ok then clients * file_bytes else 0);
    ops = clients;
    bad_ops = (if ok then 0 else clients);
    digest;
    busy_over_elapsed = r.E.fsh_server_cpu_sec /. r.E.fsh_seconds;
    counts = [ ("engine.events", r.E.fsh_events) ];
  }
