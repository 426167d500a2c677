open Kpath_dev
open Kpath_fs
open Kpath_net

type source =
  | Src_file of { fs : Fs.t; ino : Inode.t; off_blocks : int }
  | Src_socket of Udp.t
  | Src_framebuffer of Framebuffer.t
  | Src_mic of Micdev.t

type sink =
  | Dst_file of { fs : Fs.t; ino : Inode.t; off_blocks : int }
  | Dst_socket of { sock : Udp.t; dst : Udp.addr }
  | Dst_tcp of Tcp.conn
  | Dst_chardev of Chardev.t

let src_file fs ino ?(off_blocks = 0) () =
  if off_blocks < 0 then invalid_arg "Endpoint.src_file: negative offset";
  Src_file { fs; ino; off_blocks }

let dst_file fs ino ?(off_blocks = 0) () =
  if off_blocks < 0 then invalid_arg "Endpoint.dst_file: negative offset";
  Dst_file { fs; ino; off_blocks }

let check_sink ~block_size = function
  | Dst_file { fs; _ } ->
    if Fs.block_size fs <> block_size then
      invalid_arg "splice: mismatched block sizes"
  | Dst_socket _ ->
    if block_size > 8192 then
      invalid_arg "splice: block size exceeds datagram limit"
  | Dst_tcp _ | Dst_chardev _ -> ()
