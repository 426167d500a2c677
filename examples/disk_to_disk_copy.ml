(* Disk-to-disk copy: the paper's headline experiment as a runnable
   comparison. Copies a file between two disks with cp (read/write) and
   scp (splice), printing throughput and where the CPU time went.

   Run with:
     dune exec examples/disk_to_disk_copy.exe                 (RZ58, 4 MB)
     dune exec examples/disk_to_disk_copy.exe -- ram 8        (RAM disk, 8 MB)
     dune exec examples/disk_to_disk_copy.exe -- rz56 2 *)

open Kpath_sim
open Kpath_proc
open Kpath_kernel
open Kpath_workloads

let mb = 1024 * 1024

let run ~disk ~file_bytes ~mode =
  let s = Experiments.make_setup ~disk ~file_bytes () in
  let m = s.Experiments.machine in
  let cpu_before =
    let c = Sched.cpu (Machine.sched m) in
    (Cpu.user c, Cpu.sys c, Cpu.intr c, Cpu.ctx c)
  in
  let stats = Programs.fresh_copy_stats () in
  let _copier = Experiments.spawn_copier s ~mode stats in
  Machine.run m;
  let dt =
    Time.diff stats.Programs.copy_finished stats.Programs.copy_started
  in
  let c = Sched.cpu (Machine.sched m) in
  let u0, s0, i0, x0 = cpu_before in
  let spent f before = Time.to_sec_f (Time.diff (f c) before) in
  Format.printf
    "%-4s: %6.0f KB/s  (%.2fs; CPU: user %.2fs, sys %.2fs, intr %.2fs, ctx \
     %.2fs)@."
    (match mode with `Cp -> "cp" | `Scp -> "scp")
    (float_of_int stats.Programs.bytes_copied /. 1024. /. Time.to_sec_f dt)
    (Time.to_sec_f dt) (spent Cpu.user u0) (spent Cpu.sys s0)
    (spent Cpu.intr i0) (spent Cpu.ctx x0)

let () =
  let disk, disk_name =
    if Array.length Sys.argv > 1 then
      match String.lowercase_ascii Sys.argv.(1) with
      | "ram" -> (`Ram, "RAM disk")
      | "rz56" -> (`Rz56, "RZ56")
      | "rz58" | _ -> (`Rz58, "RZ58")
    else (`Rz58, "RZ58")
  in
  let size_mb =
    if Array.length Sys.argv > 2 then
      match int_of_string_opt Sys.argv.(2) with Some n when n > 0 -> n | _ -> 4
    else 4
  in
  Format.printf "copying %d MB between two %s drives:@." size_mb disk_name;
  run ~disk ~file_bytes:(size_mb * mb) ~mode:`Cp;
  run ~disk ~file_bytes:(size_mb * mb) ~mode:`Scp;
  Format.printf
    "scp eliminates the two user-space copies and the per-block context \
     switches; on fast devices that is the whole data path.@."
