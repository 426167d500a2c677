(* Statistical profiler for the traced run.

   A SIGPROF interval timer (process CPU time, all domains) fires every
   [interval] seconds; the OCaml handler records the call stack of the
   domain that takes the signal. Each sample is later charged to the
   innermost frame that belongs to a kpath library, so stdlib frames
   (Hashtbl, Bytes, ...) count towards their nearest kpath caller; a
   sample with no kpath frame at all is charged to [other]. The
   benchmark's own workload drivers ([Work], which play the part of
   [Experiments]' drivers) count as [workloads].

   The shares are approximate. Handlers run at OCaml poll points, not at
   the instruction the timer expired on. A loop's poll point carries no
   debug information, so a leaf function interrupted there is charged to
   its caller. A simulated process runs on its own fiber and its stack
   ends there, so the scheduler frames below it are not seen. *)

let layers =
  [| "sim"; "proc"; "dev"; "buf"; "fs"; "core"; "graph"; "vm"; "net";
     "kernel"; "workloads"; "other" |]

let other = Array.length layers - 1
let interval = 0.001
let depth = 128
let samples : Printexc.raw_backtrace list ref = ref []
let active = ref false
let handler _ = samples := Printexc.get_callstack depth :: !samples

let arm v =
  ignore
    (Unix.setitimer Unix.ITIMER_PROF { Unix.it_interval = v; it_value = v })

let start () =
  samples := [];
  active := true;
  Sys.set_signal Sys.sigprof (Sys.Signal_handle handler);
  arm interval

(* Stop sampling around [f] (the benchmark's own output checks). *)
let paused f =
  if not !active then f ()
  else begin
    arm 0.0;
    Fun.protect ~finally:(fun () -> arm interval) f
  end

let stop () =
  arm 0.0;
  active := false;
  Sys.set_signal Sys.sigprof Sys.Signal_ignore

let index l =
  let rec find i =
    if i = Array.length layers then None
    else if layers.(i) = l then Some i
    else find (i + 1)
  in
  find 0

let has_prefix p s =
  String.length s >= String.length p && String.sub s 0 (String.length p) = p

(* "Kpath_buf__Cache.bread" -> index of "buf": the library is the run of
   lowercase letters after the "Kpath_" prefix. *)
let layer_of_name name =
  let p = "Kpath_" in
  let n = String.length name and pl = String.length p in
  if has_prefix "Dune__exe__Work." name then index "workloads"
  else if not (has_prefix p name) then None
  else begin
    let e = ref pl in
    while !e < n && name.[!e] >= 'a' && name.[!e] <= 'z' do incr e done;
    match index (String.sub name pl (!e - pl)) with
    | Some i when i <> other -> Some i
    | _ -> None
  end

(* A return address may stand for several inlined frames, innermost
   first; the innermost kpath one decides. *)
let slot_layer slot =
  let rec walk = function
    | None -> None
    | Some s ->
      let named =
        match Printexc.convert_raw_backtrace_slot s with
        | exception Failure _ -> None
        | s' -> Option.bind (Printexc.Slot.name s') layer_of_name
      in
      if named <> None then named else walk (Printexc.get_raw_backtrace_next_slot s)
  in
  walk (Some slot)

(* Per-layer sample counts of everything recorded since [start]. *)
let attribute () =
  let counts = Array.make (Array.length layers) 0 in
  let memo : (int, int option) Hashtbl.t = Hashtbl.create 4096 in
  let charge bt =
    let entries = Printexc.raw_backtrace_entries bt in
    let rec scan i =
      if i = Array.length entries then other
      else begin
        let key = (entries.(i) :> int) in
        let l =
          match Hashtbl.find_opt memo key with
          | Some l -> l
          | None ->
            let l = slot_layer (Printexc.get_raw_backtrace_slot bt i) in
            Hashtbl.add memo key l;
            l
        in
        match l with Some l -> l | None -> scan (i + 1)
      end
    in
    let l = scan 0 in
    counts.(l) <- counts.(l) + 1
  in
  List.iter charge !samples;
  samples := [];
  counts
