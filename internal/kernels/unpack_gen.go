// Code generated by genkernels. DO NOT EDIT.
//
// Regenerate with: go generate ./internal/kernels

package kernels

import "encoding/binary"

// unpack0 decodes 32 0-bit values (0 bytes) from src into out.
func unpack0(src []byte, out *[32]uint32) {
	_ = src
	for i := range out {
		out[i] = 0
	}
}

// unpack1 decodes 32 1-bit values (4 bytes) from src into out.
func unpack1(src []byte, out *[32]uint32) {
	_ = src[3]
	w0 := binary.LittleEndian.Uint32(src[0:])
	out[0] = w0 & 0x1
	out[1] = w0 >> 1 & 0x1
	out[2] = w0 >> 2 & 0x1
	out[3] = w0 >> 3 & 0x1
	out[4] = w0 >> 4 & 0x1
	out[5] = w0 >> 5 & 0x1
	out[6] = w0 >> 6 & 0x1
	out[7] = w0 >> 7 & 0x1
	out[8] = w0 >> 8 & 0x1
	out[9] = w0 >> 9 & 0x1
	out[10] = w0 >> 10 & 0x1
	out[11] = w0 >> 11 & 0x1
	out[12] = w0 >> 12 & 0x1
	out[13] = w0 >> 13 & 0x1
	out[14] = w0 >> 14 & 0x1
	out[15] = w0 >> 15 & 0x1
	out[16] = w0 >> 16 & 0x1
	out[17] = w0 >> 17 & 0x1
	out[18] = w0 >> 18 & 0x1
	out[19] = w0 >> 19 & 0x1
	out[20] = w0 >> 20 & 0x1
	out[21] = w0 >> 21 & 0x1
	out[22] = w0 >> 22 & 0x1
	out[23] = w0 >> 23 & 0x1
	out[24] = w0 >> 24 & 0x1
	out[25] = w0 >> 25 & 0x1
	out[26] = w0 >> 26 & 0x1
	out[27] = w0 >> 27 & 0x1
	out[28] = w0 >> 28 & 0x1
	out[29] = w0 >> 29 & 0x1
	out[30] = w0 >> 30 & 0x1
	out[31] = w0 >> 31
}

// unpack2 decodes 32 2-bit values (8 bytes) from src into out.
func unpack2(src []byte, out *[32]uint32) {
	_ = src[7]
	w0 := binary.LittleEndian.Uint32(src[0:])
	out[0] = w0 & 0x3
	out[1] = w0 >> 2 & 0x3
	out[2] = w0 >> 4 & 0x3
	out[3] = w0 >> 6 & 0x3
	out[4] = w0 >> 8 & 0x3
	out[5] = w0 >> 10 & 0x3
	out[6] = w0 >> 12 & 0x3
	out[7] = w0 >> 14 & 0x3
	out[8] = w0 >> 16 & 0x3
	out[9] = w0 >> 18 & 0x3
	out[10] = w0 >> 20 & 0x3
	out[11] = w0 >> 22 & 0x3
	out[12] = w0 >> 24 & 0x3
	out[13] = w0 >> 26 & 0x3
	out[14] = w0 >> 28 & 0x3
	out[15] = w0 >> 30
	w4 := binary.LittleEndian.Uint32(src[4:])
	out[16] = w4 & 0x3
	out[17] = w4 >> 2 & 0x3
	out[18] = w4 >> 4 & 0x3
	out[19] = w4 >> 6 & 0x3
	out[20] = w4 >> 8 & 0x3
	out[21] = w4 >> 10 & 0x3
	out[22] = w4 >> 12 & 0x3
	out[23] = w4 >> 14 & 0x3
	out[24] = w4 >> 16 & 0x3
	out[25] = w4 >> 18 & 0x3
	out[26] = w4 >> 20 & 0x3
	out[27] = w4 >> 22 & 0x3
	out[28] = w4 >> 24 & 0x3
	out[29] = w4 >> 26 & 0x3
	out[30] = w4 >> 28 & 0x3
	out[31] = w4 >> 30
}

// unpack3 decodes 32 3-bit values (12 bytes) from src into out.
func unpack3(src []byte, out *[32]uint32) {
	_ = src[11]
	w0 := binary.LittleEndian.Uint32(src[0:])
	out[0] = w0 & 0x7
	out[1] = w0 >> 3 & 0x7
	out[2] = w0 >> 6 & 0x7
	out[3] = w0 >> 9 & 0x7
	out[4] = w0 >> 12 & 0x7
	out[5] = w0 >> 15 & 0x7
	out[6] = w0 >> 18 & 0x7
	out[7] = w0 >> 21 & 0x7
	out[8] = w0 >> 24 & 0x7
	out[9] = w0 >> 27 & 0x7
	w4 := binary.LittleEndian.Uint32(src[4:])
	out[10] = (w0>>30 | w4<<2) & 0x7
	out[11] = w4 >> 1 & 0x7
	out[12] = w4 >> 4 & 0x7
	out[13] = w4 >> 7 & 0x7
	out[14] = w4 >> 10 & 0x7
	out[15] = w4 >> 13 & 0x7
	out[16] = w4 >> 16 & 0x7
	out[17] = w4 >> 19 & 0x7
	out[18] = w4 >> 22 & 0x7
	out[19] = w4 >> 25 & 0x7
	out[20] = w4 >> 28 & 0x7
	w8 := binary.LittleEndian.Uint32(src[8:])
	out[21] = (w4>>31 | w8<<1) & 0x7
	out[22] = w8 >> 2 & 0x7
	out[23] = w8 >> 5 & 0x7
	out[24] = w8 >> 8 & 0x7
	out[25] = w8 >> 11 & 0x7
	out[26] = w8 >> 14 & 0x7
	out[27] = w8 >> 17 & 0x7
	out[28] = w8 >> 20 & 0x7
	out[29] = w8 >> 23 & 0x7
	out[30] = w8 >> 26 & 0x7
	out[31] = w8 >> 29
}

// unpack4 decodes 32 4-bit values (16 bytes) from src into out.
func unpack4(src []byte, out *[32]uint32) {
	_ = src[15]
	w0 := binary.LittleEndian.Uint32(src[0:])
	out[0] = w0 & 0xf
	out[1] = w0 >> 4 & 0xf
	out[2] = w0 >> 8 & 0xf
	out[3] = w0 >> 12 & 0xf
	out[4] = w0 >> 16 & 0xf
	out[5] = w0 >> 20 & 0xf
	out[6] = w0 >> 24 & 0xf
	out[7] = w0 >> 28
	w4 := binary.LittleEndian.Uint32(src[4:])
	out[8] = w4 & 0xf
	out[9] = w4 >> 4 & 0xf
	out[10] = w4 >> 8 & 0xf
	out[11] = w4 >> 12 & 0xf
	out[12] = w4 >> 16 & 0xf
	out[13] = w4 >> 20 & 0xf
	out[14] = w4 >> 24 & 0xf
	out[15] = w4 >> 28
	w8 := binary.LittleEndian.Uint32(src[8:])
	out[16] = w8 & 0xf
	out[17] = w8 >> 4 & 0xf
	out[18] = w8 >> 8 & 0xf
	out[19] = w8 >> 12 & 0xf
	out[20] = w8 >> 16 & 0xf
	out[21] = w8 >> 20 & 0xf
	out[22] = w8 >> 24 & 0xf
	out[23] = w8 >> 28
	w12 := binary.LittleEndian.Uint32(src[12:])
	out[24] = w12 & 0xf
	out[25] = w12 >> 4 & 0xf
	out[26] = w12 >> 8 & 0xf
	out[27] = w12 >> 12 & 0xf
	out[28] = w12 >> 16 & 0xf
	out[29] = w12 >> 20 & 0xf
	out[30] = w12 >> 24 & 0xf
	out[31] = w12 >> 28
}

// unpack5 decodes 32 5-bit values (20 bytes) from src into out.
func unpack5(src []byte, out *[32]uint32) {
	_ = src[19]
	w0 := binary.LittleEndian.Uint32(src[0:])
	out[0] = w0 & 0x1f
	out[1] = w0 >> 5 & 0x1f
	out[2] = w0 >> 10 & 0x1f
	out[3] = w0 >> 15 & 0x1f
	out[4] = w0 >> 20 & 0x1f
	out[5] = w0 >> 25 & 0x1f
	w4 := binary.LittleEndian.Uint32(src[4:])
	out[6] = (w0>>30 | w4<<2) & 0x1f
	out[7] = w4 >> 3 & 0x1f
	out[8] = w4 >> 8 & 0x1f
	out[9] = w4 >> 13 & 0x1f
	out[10] = w4 >> 18 & 0x1f
	out[11] = w4 >> 23 & 0x1f
	w8 := binary.LittleEndian.Uint32(src[8:])
	out[12] = (w4>>28 | w8<<4) & 0x1f
	out[13] = w8 >> 1 & 0x1f
	out[14] = w8 >> 6 & 0x1f
	out[15] = w8 >> 11 & 0x1f
	out[16] = w8 >> 16 & 0x1f
	out[17] = w8 >> 21 & 0x1f
	out[18] = w8 >> 26 & 0x1f
	w12 := binary.LittleEndian.Uint32(src[12:])
	out[19] = (w8>>31 | w12<<1) & 0x1f
	out[20] = w12 >> 4 & 0x1f
	out[21] = w12 >> 9 & 0x1f
	out[22] = w12 >> 14 & 0x1f
	out[23] = w12 >> 19 & 0x1f
	out[24] = w12 >> 24 & 0x1f
	w16 := binary.LittleEndian.Uint32(src[16:])
	out[25] = (w12>>29 | w16<<3) & 0x1f
	out[26] = w16 >> 2 & 0x1f
	out[27] = w16 >> 7 & 0x1f
	out[28] = w16 >> 12 & 0x1f
	out[29] = w16 >> 17 & 0x1f
	out[30] = w16 >> 22 & 0x1f
	out[31] = w16 >> 27
}

// unpack6 decodes 32 6-bit values (24 bytes) from src into out.
func unpack6(src []byte, out *[32]uint32) {
	_ = src[23]
	w0 := binary.LittleEndian.Uint32(src[0:])
	out[0] = w0 & 0x3f
	out[1] = w0 >> 6 & 0x3f
	out[2] = w0 >> 12 & 0x3f
	out[3] = w0 >> 18 & 0x3f
	out[4] = w0 >> 24 & 0x3f
	w4 := binary.LittleEndian.Uint32(src[4:])
	out[5] = (w0>>30 | w4<<2) & 0x3f
	out[6] = w4 >> 4 & 0x3f
	out[7] = w4 >> 10 & 0x3f
	out[8] = w4 >> 16 & 0x3f
	out[9] = w4 >> 22 & 0x3f
	w8 := binary.LittleEndian.Uint32(src[8:])
	out[10] = (w4>>28 | w8<<4) & 0x3f
	out[11] = w8 >> 2 & 0x3f
	out[12] = w8 >> 8 & 0x3f
	out[13] = w8 >> 14 & 0x3f
	out[14] = w8 >> 20 & 0x3f
	out[15] = w8 >> 26
	w12 := binary.LittleEndian.Uint32(src[12:])
	out[16] = w12 & 0x3f
	out[17] = w12 >> 6 & 0x3f
	out[18] = w12 >> 12 & 0x3f
	out[19] = w12 >> 18 & 0x3f
	out[20] = w12 >> 24 & 0x3f
	w16 := binary.LittleEndian.Uint32(src[16:])
	out[21] = (w12>>30 | w16<<2) & 0x3f
	out[22] = w16 >> 4 & 0x3f
	out[23] = w16 >> 10 & 0x3f
	out[24] = w16 >> 16 & 0x3f
	out[25] = w16 >> 22 & 0x3f
	w20 := binary.LittleEndian.Uint32(src[20:])
	out[26] = (w16>>28 | w20<<4) & 0x3f
	out[27] = w20 >> 2 & 0x3f
	out[28] = w20 >> 8 & 0x3f
	out[29] = w20 >> 14 & 0x3f
	out[30] = w20 >> 20 & 0x3f
	out[31] = w20 >> 26
}

// unpack7 decodes 32 7-bit values (28 bytes) from src into out.
func unpack7(src []byte, out *[32]uint32) {
	_ = src[27]
	w0 := binary.LittleEndian.Uint32(src[0:])
	out[0] = w0 & 0x7f
	out[1] = w0 >> 7 & 0x7f
	out[2] = w0 >> 14 & 0x7f
	out[3] = w0 >> 21 & 0x7f
	w4 := binary.LittleEndian.Uint32(src[4:])
	out[4] = (w0>>28 | w4<<4) & 0x7f
	out[5] = w4 >> 3 & 0x7f
	out[6] = w4 >> 10 & 0x7f
	out[7] = w4 >> 17 & 0x7f
	out[8] = w4 >> 24 & 0x7f
	w8 := binary.LittleEndian.Uint32(src[8:])
	out[9] = (w4>>31 | w8<<1) & 0x7f
	out[10] = w8 >> 6 & 0x7f
	out[11] = w8 >> 13 & 0x7f
	out[12] = w8 >> 20 & 0x7f
	w12 := binary.LittleEndian.Uint32(src[12:])
	out[13] = (w8>>27 | w12<<5) & 0x7f
	out[14] = w12 >> 2 & 0x7f
	out[15] = w12 >> 9 & 0x7f
	out[16] = w12 >> 16 & 0x7f
	out[17] = w12 >> 23 & 0x7f
	w16 := binary.LittleEndian.Uint32(src[16:])
	out[18] = (w12>>30 | w16<<2) & 0x7f
	out[19] = w16 >> 5 & 0x7f
	out[20] = w16 >> 12 & 0x7f
	out[21] = w16 >> 19 & 0x7f
	w20 := binary.LittleEndian.Uint32(src[20:])
	out[22] = (w16>>26 | w20<<6) & 0x7f
	out[23] = w20 >> 1 & 0x7f
	out[24] = w20 >> 8 & 0x7f
	out[25] = w20 >> 15 & 0x7f
	out[26] = w20 >> 22 & 0x7f
	w24 := binary.LittleEndian.Uint32(src[24:])
	out[27] = (w20>>29 | w24<<3) & 0x7f
	out[28] = w24 >> 4 & 0x7f
	out[29] = w24 >> 11 & 0x7f
	out[30] = w24 >> 18 & 0x7f
	out[31] = w24 >> 25
}

// unpack8 decodes 32 8-bit values (32 bytes) from src into out.
func unpack8(src []byte, out *[32]uint32) {
	_ = src[31]
	w0 := binary.LittleEndian.Uint32(src[0:])
	out[0] = w0 & 0xff
	out[1] = w0 >> 8 & 0xff
	out[2] = w0 >> 16 & 0xff
	out[3] = w0 >> 24
	w4 := binary.LittleEndian.Uint32(src[4:])
	out[4] = w4 & 0xff
	out[5] = w4 >> 8 & 0xff
	out[6] = w4 >> 16 & 0xff
	out[7] = w4 >> 24
	w8 := binary.LittleEndian.Uint32(src[8:])
	out[8] = w8 & 0xff
	out[9] = w8 >> 8 & 0xff
	out[10] = w8 >> 16 & 0xff
	out[11] = w8 >> 24
	w12 := binary.LittleEndian.Uint32(src[12:])
	out[12] = w12 & 0xff
	out[13] = w12 >> 8 & 0xff
	out[14] = w12 >> 16 & 0xff
	out[15] = w12 >> 24
	w16 := binary.LittleEndian.Uint32(src[16:])
	out[16] = w16 & 0xff
	out[17] = w16 >> 8 & 0xff
	out[18] = w16 >> 16 & 0xff
	out[19] = w16 >> 24
	w20 := binary.LittleEndian.Uint32(src[20:])
	out[20] = w20 & 0xff
	out[21] = w20 >> 8 & 0xff
	out[22] = w20 >> 16 & 0xff
	out[23] = w20 >> 24
	w24 := binary.LittleEndian.Uint32(src[24:])
	out[24] = w24 & 0xff
	out[25] = w24 >> 8 & 0xff
	out[26] = w24 >> 16 & 0xff
	out[27] = w24 >> 24
	w28 := binary.LittleEndian.Uint32(src[28:])
	out[28] = w28 & 0xff
	out[29] = w28 >> 8 & 0xff
	out[30] = w28 >> 16 & 0xff
	out[31] = w28 >> 24
}

// unpack9 decodes 32 9-bit values (36 bytes) from src into out.
func unpack9(src []byte, out *[32]uint32) {
	_ = src[35]
	w0 := binary.LittleEndian.Uint32(src[0:])
	out[0] = w0 & 0x1ff
	out[1] = w0 >> 9 & 0x1ff
	out[2] = w0 >> 18 & 0x1ff
	w4 := binary.LittleEndian.Uint32(src[4:])
	out[3] = (w0>>27 | w4<<5) & 0x1ff
	out[4] = w4 >> 4 & 0x1ff
	out[5] = w4 >> 13 & 0x1ff
	out[6] = w4 >> 22 & 0x1ff
	w8 := binary.LittleEndian.Uint32(src[8:])
	out[7] = (w4>>31 | w8<<1) & 0x1ff
	out[8] = w8 >> 8 & 0x1ff
	out[9] = w8 >> 17 & 0x1ff
	w12 := binary.LittleEndian.Uint32(src[12:])
	out[10] = (w8>>26 | w12<<6) & 0x1ff
	out[11] = w12 >> 3 & 0x1ff
	out[12] = w12 >> 12 & 0x1ff
	out[13] = w12 >> 21 & 0x1ff
	w16 := binary.LittleEndian.Uint32(src[16:])
	out[14] = (w12>>30 | w16<<2) & 0x1ff
	out[15] = w16 >> 7 & 0x1ff
	out[16] = w16 >> 16 & 0x1ff
	w20 := binary.LittleEndian.Uint32(src[20:])
	out[17] = (w16>>25 | w20<<7) & 0x1ff
	out[18] = w20 >> 2 & 0x1ff
	out[19] = w20 >> 11 & 0x1ff
	out[20] = w20 >> 20 & 0x1ff
	w24 := binary.LittleEndian.Uint32(src[24:])
	out[21] = (w20>>29 | w24<<3) & 0x1ff
	out[22] = w24 >> 6 & 0x1ff
	out[23] = w24 >> 15 & 0x1ff
	w28 := binary.LittleEndian.Uint32(src[28:])
	out[24] = (w24>>24 | w28<<8) & 0x1ff
	out[25] = w28 >> 1 & 0x1ff
	out[26] = w28 >> 10 & 0x1ff
	out[27] = w28 >> 19 & 0x1ff
	w32 := binary.LittleEndian.Uint32(src[32:])
	out[28] = (w28>>28 | w32<<4) & 0x1ff
	out[29] = w32 >> 5 & 0x1ff
	out[30] = w32 >> 14 & 0x1ff
	out[31] = w32 >> 23
}

// unpack10 decodes 32 10-bit values (40 bytes) from src into out.
func unpack10(src []byte, out *[32]uint32) {
	_ = src[39]
	w0 := binary.LittleEndian.Uint32(src[0:])
	out[0] = w0 & 0x3ff
	out[1] = w0 >> 10 & 0x3ff
	out[2] = w0 >> 20 & 0x3ff
	w4 := binary.LittleEndian.Uint32(src[4:])
	out[3] = (w0>>30 | w4<<2) & 0x3ff
	out[4] = w4 >> 8 & 0x3ff
	out[5] = w4 >> 18 & 0x3ff
	w8 := binary.LittleEndian.Uint32(src[8:])
	out[6] = (w4>>28 | w8<<4) & 0x3ff
	out[7] = w8 >> 6 & 0x3ff
	out[8] = w8 >> 16 & 0x3ff
	w12 := binary.LittleEndian.Uint32(src[12:])
	out[9] = (w8>>26 | w12<<6) & 0x3ff
	out[10] = w12 >> 4 & 0x3ff
	out[11] = w12 >> 14 & 0x3ff
	w16 := binary.LittleEndian.Uint32(src[16:])
	out[12] = (w12>>24 | w16<<8) & 0x3ff
	out[13] = w16 >> 2 & 0x3ff
	out[14] = w16 >> 12 & 0x3ff
	out[15] = w16 >> 22
	w20 := binary.LittleEndian.Uint32(src[20:])
	out[16] = w20 & 0x3ff
	out[17] = w20 >> 10 & 0x3ff
	out[18] = w20 >> 20 & 0x3ff
	w24 := binary.LittleEndian.Uint32(src[24:])
	out[19] = (w20>>30 | w24<<2) & 0x3ff
	out[20] = w24 >> 8 & 0x3ff
	out[21] = w24 >> 18 & 0x3ff
	w28 := binary.LittleEndian.Uint32(src[28:])
	out[22] = (w24>>28 | w28<<4) & 0x3ff
	out[23] = w28 >> 6 & 0x3ff
	out[24] = w28 >> 16 & 0x3ff
	w32 := binary.LittleEndian.Uint32(src[32:])
	out[25] = (w28>>26 | w32<<6) & 0x3ff
	out[26] = w32 >> 4 & 0x3ff
	out[27] = w32 >> 14 & 0x3ff
	w36 := binary.LittleEndian.Uint32(src[36:])
	out[28] = (w32>>24 | w36<<8) & 0x3ff
	out[29] = w36 >> 2 & 0x3ff
	out[30] = w36 >> 12 & 0x3ff
	out[31] = w36 >> 22
}

// unpack11 decodes 32 11-bit values (44 bytes) from src into out.
func unpack11(src []byte, out *[32]uint32) {
	_ = src[43]
	w0 := binary.LittleEndian.Uint32(src[0:])
	out[0] = w0 & 0x7ff
	out[1] = w0 >> 11 & 0x7ff
	w4 := binary.LittleEndian.Uint32(src[4:])
	out[2] = (w0>>22 | w4<<10) & 0x7ff
	out[3] = w4 >> 1 & 0x7ff
	out[4] = w4 >> 12 & 0x7ff
	w8 := binary.LittleEndian.Uint32(src[8:])
	out[5] = (w4>>23 | w8<<9) & 0x7ff
	out[6] = w8 >> 2 & 0x7ff
	out[7] = w8 >> 13 & 0x7ff
	w12 := binary.LittleEndian.Uint32(src[12:])
	out[8] = (w8>>24 | w12<<8) & 0x7ff
	out[9] = w12 >> 3 & 0x7ff
	out[10] = w12 >> 14 & 0x7ff
	w16 := binary.LittleEndian.Uint32(src[16:])
	out[11] = (w12>>25 | w16<<7) & 0x7ff
	out[12] = w16 >> 4 & 0x7ff
	out[13] = w16 >> 15 & 0x7ff
	w20 := binary.LittleEndian.Uint32(src[20:])
	out[14] = (w16>>26 | w20<<6) & 0x7ff
	out[15] = w20 >> 5 & 0x7ff
	out[16] = w20 >> 16 & 0x7ff
	w24 := binary.LittleEndian.Uint32(src[24:])
	out[17] = (w20>>27 | w24<<5) & 0x7ff
	out[18] = w24 >> 6 & 0x7ff
	out[19] = w24 >> 17 & 0x7ff
	w28 := binary.LittleEndian.Uint32(src[28:])
	out[20] = (w24>>28 | w28<<4) & 0x7ff
	out[21] = w28 >> 7 & 0x7ff
	out[22] = w28 >> 18 & 0x7ff
	w32 := binary.LittleEndian.Uint32(src[32:])
	out[23] = (w28>>29 | w32<<3) & 0x7ff
	out[24] = w32 >> 8 & 0x7ff
	out[25] = w32 >> 19 & 0x7ff
	w36 := binary.LittleEndian.Uint32(src[36:])
	out[26] = (w32>>30 | w36<<2) & 0x7ff
	out[27] = w36 >> 9 & 0x7ff
	out[28] = w36 >> 20 & 0x7ff
	w40 := binary.LittleEndian.Uint32(src[40:])
	out[29] = (w36>>31 | w40<<1) & 0x7ff
	out[30] = w40 >> 10 & 0x7ff
	out[31] = w40 >> 21
}

// unpack12 decodes 32 12-bit values (48 bytes) from src into out.
func unpack12(src []byte, out *[32]uint32) {
	_ = src[47]
	w0 := binary.LittleEndian.Uint32(src[0:])
	out[0] = w0 & 0xfff
	out[1] = w0 >> 12 & 0xfff
	w4 := binary.LittleEndian.Uint32(src[4:])
	out[2] = (w0>>24 | w4<<8) & 0xfff
	out[3] = w4 >> 4 & 0xfff
	out[4] = w4 >> 16 & 0xfff
	w8 := binary.LittleEndian.Uint32(src[8:])
	out[5] = (w4>>28 | w8<<4) & 0xfff
	out[6] = w8 >> 8 & 0xfff
	out[7] = w8 >> 20
	w12 := binary.LittleEndian.Uint32(src[12:])
	out[8] = w12 & 0xfff
	out[9] = w12 >> 12 & 0xfff
	w16 := binary.LittleEndian.Uint32(src[16:])
	out[10] = (w12>>24 | w16<<8) & 0xfff
	out[11] = w16 >> 4 & 0xfff
	out[12] = w16 >> 16 & 0xfff
	w20 := binary.LittleEndian.Uint32(src[20:])
	out[13] = (w16>>28 | w20<<4) & 0xfff
	out[14] = w20 >> 8 & 0xfff
	out[15] = w20 >> 20
	w24 := binary.LittleEndian.Uint32(src[24:])
	out[16] = w24 & 0xfff
	out[17] = w24 >> 12 & 0xfff
	w28 := binary.LittleEndian.Uint32(src[28:])
	out[18] = (w24>>24 | w28<<8) & 0xfff
	out[19] = w28 >> 4 & 0xfff
	out[20] = w28 >> 16 & 0xfff
	w32 := binary.LittleEndian.Uint32(src[32:])
	out[21] = (w28>>28 | w32<<4) & 0xfff
	out[22] = w32 >> 8 & 0xfff
	out[23] = w32 >> 20
	w36 := binary.LittleEndian.Uint32(src[36:])
	out[24] = w36 & 0xfff
	out[25] = w36 >> 12 & 0xfff
	w40 := binary.LittleEndian.Uint32(src[40:])
	out[26] = (w36>>24 | w40<<8) & 0xfff
	out[27] = w40 >> 4 & 0xfff
	out[28] = w40 >> 16 & 0xfff
	w44 := binary.LittleEndian.Uint32(src[44:])
	out[29] = (w40>>28 | w44<<4) & 0xfff
	out[30] = w44 >> 8 & 0xfff
	out[31] = w44 >> 20
}

// unpack13 decodes 32 13-bit values (52 bytes) from src into out.
func unpack13(src []byte, out *[32]uint32) {
	_ = src[51]
	w0 := binary.LittleEndian.Uint32(src[0:])
	out[0] = w0 & 0x1fff
	out[1] = w0 >> 13 & 0x1fff
	w4 := binary.LittleEndian.Uint32(src[4:])
	out[2] = (w0>>26 | w4<<6) & 0x1fff
	out[3] = w4 >> 7 & 0x1fff
	w8 := binary.LittleEndian.Uint32(src[8:])
	out[4] = (w4>>20 | w8<<12) & 0x1fff
	out[5] = w8 >> 1 & 0x1fff
	out[6] = w8 >> 14 & 0x1fff
	w12 := binary.LittleEndian.Uint32(src[12:])
	out[7] = (w8>>27 | w12<<5) & 0x1fff
	out[8] = w12 >> 8 & 0x1fff
	w16 := binary.LittleEndian.Uint32(src[16:])
	out[9] = (w12>>21 | w16<<11) & 0x1fff
	out[10] = w16 >> 2 & 0x1fff
	out[11] = w16 >> 15 & 0x1fff
	w20 := binary.LittleEndian.Uint32(src[20:])
	out[12] = (w16>>28 | w20<<4) & 0x1fff
	out[13] = w20 >> 9 & 0x1fff
	w24 := binary.LittleEndian.Uint32(src[24:])
	out[14] = (w20>>22 | w24<<10) & 0x1fff
	out[15] = w24 >> 3 & 0x1fff
	out[16] = w24 >> 16 & 0x1fff
	w28 := binary.LittleEndian.Uint32(src[28:])
	out[17] = (w24>>29 | w28<<3) & 0x1fff
	out[18] = w28 >> 10 & 0x1fff
	w32 := binary.LittleEndian.Uint32(src[32:])
	out[19] = (w28>>23 | w32<<9) & 0x1fff
	out[20] = w32 >> 4 & 0x1fff
	out[21] = w32 >> 17 & 0x1fff
	w36 := binary.LittleEndian.Uint32(src[36:])
	out[22] = (w32>>30 | w36<<2) & 0x1fff
	out[23] = w36 >> 11 & 0x1fff
	w40 := binary.LittleEndian.Uint32(src[40:])
	out[24] = (w36>>24 | w40<<8) & 0x1fff
	out[25] = w40 >> 5 & 0x1fff
	out[26] = w40 >> 18 & 0x1fff
	w44 := binary.LittleEndian.Uint32(src[44:])
	out[27] = (w40>>31 | w44<<1) & 0x1fff
	out[28] = w44 >> 12 & 0x1fff
	w48 := binary.LittleEndian.Uint32(src[48:])
	out[29] = (w44>>25 | w48<<7) & 0x1fff
	out[30] = w48 >> 6 & 0x1fff
	out[31] = w48 >> 19
}

// unpack14 decodes 32 14-bit values (56 bytes) from src into out.
func unpack14(src []byte, out *[32]uint32) {
	_ = src[55]
	w0 := binary.LittleEndian.Uint32(src[0:])
	out[0] = w0 & 0x3fff
	out[1] = w0 >> 14 & 0x3fff
	w4 := binary.LittleEndian.Uint32(src[4:])
	out[2] = (w0>>28 | w4<<4) & 0x3fff
	out[3] = w4 >> 10 & 0x3fff
	w8 := binary.LittleEndian.Uint32(src[8:])
	out[4] = (w4>>24 | w8<<8) & 0x3fff
	out[5] = w8 >> 6 & 0x3fff
	w12 := binary.LittleEndian.Uint32(src[12:])
	out[6] = (w8>>20 | w12<<12) & 0x3fff
	out[7] = w12 >> 2 & 0x3fff
	out[8] = w12 >> 16 & 0x3fff
	w16 := binary.LittleEndian.Uint32(src[16:])
	out[9] = (w12>>30 | w16<<2) & 0x3fff
	out[10] = w16 >> 12 & 0x3fff
	w20 := binary.LittleEndian.Uint32(src[20:])
	out[11] = (w16>>26 | w20<<6) & 0x3fff
	out[12] = w20 >> 8 & 0x3fff
	w24 := binary.LittleEndian.Uint32(src[24:])
	out[13] = (w20>>22 | w24<<10) & 0x3fff
	out[14] = w24 >> 4 & 0x3fff
	out[15] = w24 >> 18
	w28 := binary.LittleEndian.Uint32(src[28:])
	out[16] = w28 & 0x3fff
	out[17] = w28 >> 14 & 0x3fff
	w32 := binary.LittleEndian.Uint32(src[32:])
	out[18] = (w28>>28 | w32<<4) & 0x3fff
	out[19] = w32 >> 10 & 0x3fff
	w36 := binary.LittleEndian.Uint32(src[36:])
	out[20] = (w32>>24 | w36<<8) & 0x3fff
	out[21] = w36 >> 6 & 0x3fff
	w40 := binary.LittleEndian.Uint32(src[40:])
	out[22] = (w36>>20 | w40<<12) & 0x3fff
	out[23] = w40 >> 2 & 0x3fff
	out[24] = w40 >> 16 & 0x3fff
	w44 := binary.LittleEndian.Uint32(src[44:])
	out[25] = (w40>>30 | w44<<2) & 0x3fff
	out[26] = w44 >> 12 & 0x3fff
	w48 := binary.LittleEndian.Uint32(src[48:])
	out[27] = (w44>>26 | w48<<6) & 0x3fff
	out[28] = w48 >> 8 & 0x3fff
	w52 := binary.LittleEndian.Uint32(src[52:])
	out[29] = (w48>>22 | w52<<10) & 0x3fff
	out[30] = w52 >> 4 & 0x3fff
	out[31] = w52 >> 18
}

// unpack15 decodes 32 15-bit values (60 bytes) from src into out.
func unpack15(src []byte, out *[32]uint32) {
	_ = src[59]
	w0 := binary.LittleEndian.Uint32(src[0:])
	out[0] = w0 & 0x7fff
	out[1] = w0 >> 15 & 0x7fff
	w4 := binary.LittleEndian.Uint32(src[4:])
	out[2] = (w0>>30 | w4<<2) & 0x7fff
	out[3] = w4 >> 13 & 0x7fff
	w8 := binary.LittleEndian.Uint32(src[8:])
	out[4] = (w4>>28 | w8<<4) & 0x7fff
	out[5] = w8 >> 11 & 0x7fff
	w12 := binary.LittleEndian.Uint32(src[12:])
	out[6] = (w8>>26 | w12<<6) & 0x7fff
	out[7] = w12 >> 9 & 0x7fff
	w16 := binary.LittleEndian.Uint32(src[16:])
	out[8] = (w12>>24 | w16<<8) & 0x7fff
	out[9] = w16 >> 7 & 0x7fff
	w20 := binary.LittleEndian.Uint32(src[20:])
	out[10] = (w16>>22 | w20<<10) & 0x7fff
	out[11] = w20 >> 5 & 0x7fff
	w24 := binary.LittleEndian.Uint32(src[24:])
	out[12] = (w20>>20 | w24<<12) & 0x7fff
	out[13] = w24 >> 3 & 0x7fff
	w28 := binary.LittleEndian.Uint32(src[28:])
	out[14] = (w24>>18 | w28<<14) & 0x7fff
	out[15] = w28 >> 1 & 0x7fff
	out[16] = w28 >> 16 & 0x7fff
	w32 := binary.LittleEndian.Uint32(src[32:])
	out[17] = (w28>>31 | w32<<1) & 0x7fff
	out[18] = w32 >> 14 & 0x7fff
	w36 := binary.LittleEndian.Uint32(src[36:])
	out[19] = (w32>>29 | w36<<3) & 0x7fff
	out[20] = w36 >> 12 & 0x7fff
	w40 := binary.LittleEndian.Uint32(src[40:])
	out[21] = (w36>>27 | w40<<5) & 0x7fff
	out[22] = w40 >> 10 & 0x7fff
	w44 := binary.LittleEndian.Uint32(src[44:])
	out[23] = (w40>>25 | w44<<7) & 0x7fff
	out[24] = w44 >> 8 & 0x7fff
	w48 := binary.LittleEndian.Uint32(src[48:])
	out[25] = (w44>>23 | w48<<9) & 0x7fff
	out[26] = w48 >> 6 & 0x7fff
	w52 := binary.LittleEndian.Uint32(src[52:])
	out[27] = (w48>>21 | w52<<11) & 0x7fff
	out[28] = w52 >> 4 & 0x7fff
	w56 := binary.LittleEndian.Uint32(src[56:])
	out[29] = (w52>>19 | w56<<13) & 0x7fff
	out[30] = w56 >> 2 & 0x7fff
	out[31] = w56 >> 17
}

// unpack16 decodes 32 16-bit values (64 bytes) from src into out.
func unpack16(src []byte, out *[32]uint32) {
	_ = src[63]
	w0 := binary.LittleEndian.Uint32(src[0:])
	out[0] = w0 & 0xffff
	out[1] = w0 >> 16
	w4 := binary.LittleEndian.Uint32(src[4:])
	out[2] = w4 & 0xffff
	out[3] = w4 >> 16
	w8 := binary.LittleEndian.Uint32(src[8:])
	out[4] = w8 & 0xffff
	out[5] = w8 >> 16
	w12 := binary.LittleEndian.Uint32(src[12:])
	out[6] = w12 & 0xffff
	out[7] = w12 >> 16
	w16 := binary.LittleEndian.Uint32(src[16:])
	out[8] = w16 & 0xffff
	out[9] = w16 >> 16
	w20 := binary.LittleEndian.Uint32(src[20:])
	out[10] = w20 & 0xffff
	out[11] = w20 >> 16
	w24 := binary.LittleEndian.Uint32(src[24:])
	out[12] = w24 & 0xffff
	out[13] = w24 >> 16
	w28 := binary.LittleEndian.Uint32(src[28:])
	out[14] = w28 & 0xffff
	out[15] = w28 >> 16
	w32 := binary.LittleEndian.Uint32(src[32:])
	out[16] = w32 & 0xffff
	out[17] = w32 >> 16
	w36 := binary.LittleEndian.Uint32(src[36:])
	out[18] = w36 & 0xffff
	out[19] = w36 >> 16
	w40 := binary.LittleEndian.Uint32(src[40:])
	out[20] = w40 & 0xffff
	out[21] = w40 >> 16
	w44 := binary.LittleEndian.Uint32(src[44:])
	out[22] = w44 & 0xffff
	out[23] = w44 >> 16
	w48 := binary.LittleEndian.Uint32(src[48:])
	out[24] = w48 & 0xffff
	out[25] = w48 >> 16
	w52 := binary.LittleEndian.Uint32(src[52:])
	out[26] = w52 & 0xffff
	out[27] = w52 >> 16
	w56 := binary.LittleEndian.Uint32(src[56:])
	out[28] = w56 & 0xffff
	out[29] = w56 >> 16
	w60 := binary.LittleEndian.Uint32(src[60:])
	out[30] = w60 & 0xffff
	out[31] = w60 >> 16
}

// unpack17 decodes 32 17-bit values (68 bytes) from src into out.
func unpack17(src []byte, out *[32]uint32) {
	_ = src[67]
	w0 := binary.LittleEndian.Uint32(src[0:])
	out[0] = w0 & 0x1ffff
	w4 := binary.LittleEndian.Uint32(src[4:])
	out[1] = (w0>>17 | w4<<15) & 0x1ffff
	out[2] = w4 >> 2 & 0x1ffff
	w8 := binary.LittleEndian.Uint32(src[8:])
	out[3] = (w4>>19 | w8<<13) & 0x1ffff
	out[4] = w8 >> 4 & 0x1ffff
	w12 := binary.LittleEndian.Uint32(src[12:])
	out[5] = (w8>>21 | w12<<11) & 0x1ffff
	out[6] = w12 >> 6 & 0x1ffff
	w16 := binary.LittleEndian.Uint32(src[16:])
	out[7] = (w12>>23 | w16<<9) & 0x1ffff
	out[8] = w16 >> 8 & 0x1ffff
	w20 := binary.LittleEndian.Uint32(src[20:])
	out[9] = (w16>>25 | w20<<7) & 0x1ffff
	out[10] = w20 >> 10 & 0x1ffff
	w24 := binary.LittleEndian.Uint32(src[24:])
	out[11] = (w20>>27 | w24<<5) & 0x1ffff
	out[12] = w24 >> 12 & 0x1ffff
	w28 := binary.LittleEndian.Uint32(src[28:])
	out[13] = (w24>>29 | w28<<3) & 0x1ffff
	out[14] = w28 >> 14 & 0x1ffff
	w32 := binary.LittleEndian.Uint32(src[32:])
	out[15] = (w28>>31 | w32<<1) & 0x1ffff
	w36 := binary.LittleEndian.Uint32(src[36:])
	out[16] = (w32>>16 | w36<<16) & 0x1ffff
	out[17] = w36 >> 1 & 0x1ffff
	w40 := binary.LittleEndian.Uint32(src[40:])
	out[18] = (w36>>18 | w40<<14) & 0x1ffff
	out[19] = w40 >> 3 & 0x1ffff
	w44 := binary.LittleEndian.Uint32(src[44:])
	out[20] = (w40>>20 | w44<<12) & 0x1ffff
	out[21] = w44 >> 5 & 0x1ffff
	w48 := binary.LittleEndian.Uint32(src[48:])
	out[22] = (w44>>22 | w48<<10) & 0x1ffff
	out[23] = w48 >> 7 & 0x1ffff
	w52 := binary.LittleEndian.Uint32(src[52:])
	out[24] = (w48>>24 | w52<<8) & 0x1ffff
	out[25] = w52 >> 9 & 0x1ffff
	w56 := binary.LittleEndian.Uint32(src[56:])
	out[26] = (w52>>26 | w56<<6) & 0x1ffff
	out[27] = w56 >> 11 & 0x1ffff
	w60 := binary.LittleEndian.Uint32(src[60:])
	out[28] = (w56>>28 | w60<<4) & 0x1ffff
	out[29] = w60 >> 13 & 0x1ffff
	w64 := binary.LittleEndian.Uint32(src[64:])
	out[30] = (w60>>30 | w64<<2) & 0x1ffff
	out[31] = w64 >> 15
}

// unpack18 decodes 32 18-bit values (72 bytes) from src into out.
func unpack18(src []byte, out *[32]uint32) {
	_ = src[71]
	w0 := binary.LittleEndian.Uint32(src[0:])
	out[0] = w0 & 0x3ffff
	w4 := binary.LittleEndian.Uint32(src[4:])
	out[1] = (w0>>18 | w4<<14) & 0x3ffff
	out[2] = w4 >> 4 & 0x3ffff
	w8 := binary.LittleEndian.Uint32(src[8:])
	out[3] = (w4>>22 | w8<<10) & 0x3ffff
	out[4] = w8 >> 8 & 0x3ffff
	w12 := binary.LittleEndian.Uint32(src[12:])
	out[5] = (w8>>26 | w12<<6) & 0x3ffff
	out[6] = w12 >> 12 & 0x3ffff
	w16 := binary.LittleEndian.Uint32(src[16:])
	out[7] = (w12>>30 | w16<<2) & 0x3ffff
	w20 := binary.LittleEndian.Uint32(src[20:])
	out[8] = (w16>>16 | w20<<16) & 0x3ffff
	out[9] = w20 >> 2 & 0x3ffff
	w24 := binary.LittleEndian.Uint32(src[24:])
	out[10] = (w20>>20 | w24<<12) & 0x3ffff
	out[11] = w24 >> 6 & 0x3ffff
	w28 := binary.LittleEndian.Uint32(src[28:])
	out[12] = (w24>>24 | w28<<8) & 0x3ffff
	out[13] = w28 >> 10 & 0x3ffff
	w32 := binary.LittleEndian.Uint32(src[32:])
	out[14] = (w28>>28 | w32<<4) & 0x3ffff
	out[15] = w32 >> 14
	w36 := binary.LittleEndian.Uint32(src[36:])
	out[16] = w36 & 0x3ffff
	w40 := binary.LittleEndian.Uint32(src[40:])
	out[17] = (w36>>18 | w40<<14) & 0x3ffff
	out[18] = w40 >> 4 & 0x3ffff
	w44 := binary.LittleEndian.Uint32(src[44:])
	out[19] = (w40>>22 | w44<<10) & 0x3ffff
	out[20] = w44 >> 8 & 0x3ffff
	w48 := binary.LittleEndian.Uint32(src[48:])
	out[21] = (w44>>26 | w48<<6) & 0x3ffff
	out[22] = w48 >> 12 & 0x3ffff
	w52 := binary.LittleEndian.Uint32(src[52:])
	out[23] = (w48>>30 | w52<<2) & 0x3ffff
	w56 := binary.LittleEndian.Uint32(src[56:])
	out[24] = (w52>>16 | w56<<16) & 0x3ffff
	out[25] = w56 >> 2 & 0x3ffff
	w60 := binary.LittleEndian.Uint32(src[60:])
	out[26] = (w56>>20 | w60<<12) & 0x3ffff
	out[27] = w60 >> 6 & 0x3ffff
	w64 := binary.LittleEndian.Uint32(src[64:])
	out[28] = (w60>>24 | w64<<8) & 0x3ffff
	out[29] = w64 >> 10 & 0x3ffff
	w68 := binary.LittleEndian.Uint32(src[68:])
	out[30] = (w64>>28 | w68<<4) & 0x3ffff
	out[31] = w68 >> 14
}

// unpack19 decodes 32 19-bit values (76 bytes) from src into out.
func unpack19(src []byte, out *[32]uint32) {
	_ = src[75]
	w0 := binary.LittleEndian.Uint32(src[0:])
	out[0] = w0 & 0x7ffff
	w4 := binary.LittleEndian.Uint32(src[4:])
	out[1] = (w0>>19 | w4<<13) & 0x7ffff
	out[2] = w4 >> 6 & 0x7ffff
	w8 := binary.LittleEndian.Uint32(src[8:])
	out[3] = (w4>>25 | w8<<7) & 0x7ffff
	out[4] = w8 >> 12 & 0x7ffff
	w12 := binary.LittleEndian.Uint32(src[12:])
	out[5] = (w8>>31 | w12<<1) & 0x7ffff
	w16 := binary.LittleEndian.Uint32(src[16:])
	out[6] = (w12>>18 | w16<<14) & 0x7ffff
	out[7] = w16 >> 5 & 0x7ffff
	w20 := binary.LittleEndian.Uint32(src[20:])
	out[8] = (w16>>24 | w20<<8) & 0x7ffff
	out[9] = w20 >> 11 & 0x7ffff
	w24 := binary.LittleEndian.Uint32(src[24:])
	out[10] = (w20>>30 | w24<<2) & 0x7ffff
	w28 := binary.LittleEndian.Uint32(src[28:])
	out[11] = (w24>>17 | w28<<15) & 0x7ffff
	out[12] = w28 >> 4 & 0x7ffff
	w32 := binary.LittleEndian.Uint32(src[32:])
	out[13] = (w28>>23 | w32<<9) & 0x7ffff
	out[14] = w32 >> 10 & 0x7ffff
	w36 := binary.LittleEndian.Uint32(src[36:])
	out[15] = (w32>>29 | w36<<3) & 0x7ffff
	w40 := binary.LittleEndian.Uint32(src[40:])
	out[16] = (w36>>16 | w40<<16) & 0x7ffff
	out[17] = w40 >> 3 & 0x7ffff
	w44 := binary.LittleEndian.Uint32(src[44:])
	out[18] = (w40>>22 | w44<<10) & 0x7ffff
	out[19] = w44 >> 9 & 0x7ffff
	w48 := binary.LittleEndian.Uint32(src[48:])
	out[20] = (w44>>28 | w48<<4) & 0x7ffff
	w52 := binary.LittleEndian.Uint32(src[52:])
	out[21] = (w48>>15 | w52<<17) & 0x7ffff
	out[22] = w52 >> 2 & 0x7ffff
	w56 := binary.LittleEndian.Uint32(src[56:])
	out[23] = (w52>>21 | w56<<11) & 0x7ffff
	out[24] = w56 >> 8 & 0x7ffff
	w60 := binary.LittleEndian.Uint32(src[60:])
	out[25] = (w56>>27 | w60<<5) & 0x7ffff
	w64 := binary.LittleEndian.Uint32(src[64:])
	out[26] = (w60>>14 | w64<<18) & 0x7ffff
	out[27] = w64 >> 1 & 0x7ffff
	w68 := binary.LittleEndian.Uint32(src[68:])
	out[28] = (w64>>20 | w68<<12) & 0x7ffff
	out[29] = w68 >> 7 & 0x7ffff
	w72 := binary.LittleEndian.Uint32(src[72:])
	out[30] = (w68>>26 | w72<<6) & 0x7ffff
	out[31] = w72 >> 13
}

// unpack20 decodes 32 20-bit values (80 bytes) from src into out.
func unpack20(src []byte, out *[32]uint32) {
	_ = src[79]
	w0 := binary.LittleEndian.Uint32(src[0:])
	out[0] = w0 & 0xfffff
	w4 := binary.LittleEndian.Uint32(src[4:])
	out[1] = (w0>>20 | w4<<12) & 0xfffff
	out[2] = w4 >> 8 & 0xfffff
	w8 := binary.LittleEndian.Uint32(src[8:])
	out[3] = (w4>>28 | w8<<4) & 0xfffff
	w12 := binary.LittleEndian.Uint32(src[12:])
	out[4] = (w8>>16 | w12<<16) & 0xfffff
	out[5] = w12 >> 4 & 0xfffff
	w16 := binary.LittleEndian.Uint32(src[16:])
	out[6] = (w12>>24 | w16<<8) & 0xfffff
	out[7] = w16 >> 12
	w20 := binary.LittleEndian.Uint32(src[20:])
	out[8] = w20 & 0xfffff
	w24 := binary.LittleEndian.Uint32(src[24:])
	out[9] = (w20>>20 | w24<<12) & 0xfffff
	out[10] = w24 >> 8 & 0xfffff
	w28 := binary.LittleEndian.Uint32(src[28:])
	out[11] = (w24>>28 | w28<<4) & 0xfffff
	w32 := binary.LittleEndian.Uint32(src[32:])
	out[12] = (w28>>16 | w32<<16) & 0xfffff
	out[13] = w32 >> 4 & 0xfffff
	w36 := binary.LittleEndian.Uint32(src[36:])
	out[14] = (w32>>24 | w36<<8) & 0xfffff
	out[15] = w36 >> 12
	w40 := binary.LittleEndian.Uint32(src[40:])
	out[16] = w40 & 0xfffff
	w44 := binary.LittleEndian.Uint32(src[44:])
	out[17] = (w40>>20 | w44<<12) & 0xfffff
	out[18] = w44 >> 8 & 0xfffff
	w48 := binary.LittleEndian.Uint32(src[48:])
	out[19] = (w44>>28 | w48<<4) & 0xfffff
	w52 := binary.LittleEndian.Uint32(src[52:])
	out[20] = (w48>>16 | w52<<16) & 0xfffff
	out[21] = w52 >> 4 & 0xfffff
	w56 := binary.LittleEndian.Uint32(src[56:])
	out[22] = (w52>>24 | w56<<8) & 0xfffff
	out[23] = w56 >> 12
	w60 := binary.LittleEndian.Uint32(src[60:])
	out[24] = w60 & 0xfffff
	w64 := binary.LittleEndian.Uint32(src[64:])
	out[25] = (w60>>20 | w64<<12) & 0xfffff
	out[26] = w64 >> 8 & 0xfffff
	w68 := binary.LittleEndian.Uint32(src[68:])
	out[27] = (w64>>28 | w68<<4) & 0xfffff
	w72 := binary.LittleEndian.Uint32(src[72:])
	out[28] = (w68>>16 | w72<<16) & 0xfffff
	out[29] = w72 >> 4 & 0xfffff
	w76 := binary.LittleEndian.Uint32(src[76:])
	out[30] = (w72>>24 | w76<<8) & 0xfffff
	out[31] = w76 >> 12
}

// unpack21 decodes 32 21-bit values (84 bytes) from src into out.
func unpack21(src []byte, out *[32]uint32) {
	_ = src[83]
	w0 := binary.LittleEndian.Uint32(src[0:])
	out[0] = w0 & 0x1fffff
	w4 := binary.LittleEndian.Uint32(src[4:])
	out[1] = (w0>>21 | w4<<11) & 0x1fffff
	out[2] = w4 >> 10 & 0x1fffff
	w8 := binary.LittleEndian.Uint32(src[8:])
	out[3] = (w4>>31 | w8<<1) & 0x1fffff
	w12 := binary.LittleEndian.Uint32(src[12:])
	out[4] = (w8>>20 | w12<<12) & 0x1fffff
	out[5] = w12 >> 9 & 0x1fffff
	w16 := binary.LittleEndian.Uint32(src[16:])
	out[6] = (w12>>30 | w16<<2) & 0x1fffff
	w20 := binary.LittleEndian.Uint32(src[20:])
	out[7] = (w16>>19 | w20<<13) & 0x1fffff
	out[8] = w20 >> 8 & 0x1fffff
	w24 := binary.LittleEndian.Uint32(src[24:])
	out[9] = (w20>>29 | w24<<3) & 0x1fffff
	w28 := binary.LittleEndian.Uint32(src[28:])
	out[10] = (w24>>18 | w28<<14) & 0x1fffff
	out[11] = w28 >> 7 & 0x1fffff
	w32 := binary.LittleEndian.Uint32(src[32:])
	out[12] = (w28>>28 | w32<<4) & 0x1fffff
	w36 := binary.LittleEndian.Uint32(src[36:])
	out[13] = (w32>>17 | w36<<15) & 0x1fffff
	out[14] = w36 >> 6 & 0x1fffff
	w40 := binary.LittleEndian.Uint32(src[40:])
	out[15] = (w36>>27 | w40<<5) & 0x1fffff
	w44 := binary.LittleEndian.Uint32(src[44:])
	out[16] = (w40>>16 | w44<<16) & 0x1fffff
	out[17] = w44 >> 5 & 0x1fffff
	w48 := binary.LittleEndian.Uint32(src[48:])
	out[18] = (w44>>26 | w48<<6) & 0x1fffff
	w52 := binary.LittleEndian.Uint32(src[52:])
	out[19] = (w48>>15 | w52<<17) & 0x1fffff
	out[20] = w52 >> 4 & 0x1fffff
	w56 := binary.LittleEndian.Uint32(src[56:])
	out[21] = (w52>>25 | w56<<7) & 0x1fffff
	w60 := binary.LittleEndian.Uint32(src[60:])
	out[22] = (w56>>14 | w60<<18) & 0x1fffff
	out[23] = w60 >> 3 & 0x1fffff
	w64 := binary.LittleEndian.Uint32(src[64:])
	out[24] = (w60>>24 | w64<<8) & 0x1fffff
	w68 := binary.LittleEndian.Uint32(src[68:])
	out[25] = (w64>>13 | w68<<19) & 0x1fffff
	out[26] = w68 >> 2 & 0x1fffff
	w72 := binary.LittleEndian.Uint32(src[72:])
	out[27] = (w68>>23 | w72<<9) & 0x1fffff
	w76 := binary.LittleEndian.Uint32(src[76:])
	out[28] = (w72>>12 | w76<<20) & 0x1fffff
	out[29] = w76 >> 1 & 0x1fffff
	w80 := binary.LittleEndian.Uint32(src[80:])
	out[30] = (w76>>22 | w80<<10) & 0x1fffff
	out[31] = w80 >> 11
}

// unpack22 decodes 32 22-bit values (88 bytes) from src into out.
func unpack22(src []byte, out *[32]uint32) {
	_ = src[87]
	w0 := binary.LittleEndian.Uint32(src[0:])
	out[0] = w0 & 0x3fffff
	w4 := binary.LittleEndian.Uint32(src[4:])
	out[1] = (w0>>22 | w4<<10) & 0x3fffff
	w8 := binary.LittleEndian.Uint32(src[8:])
	out[2] = (w4>>12 | w8<<20) & 0x3fffff
	out[3] = w8 >> 2 & 0x3fffff
	w12 := binary.LittleEndian.Uint32(src[12:])
	out[4] = (w8>>24 | w12<<8) & 0x3fffff
	w16 := binary.LittleEndian.Uint32(src[16:])
	out[5] = (w12>>14 | w16<<18) & 0x3fffff
	out[6] = w16 >> 4 & 0x3fffff
	w20 := binary.LittleEndian.Uint32(src[20:])
	out[7] = (w16>>26 | w20<<6) & 0x3fffff
	w24 := binary.LittleEndian.Uint32(src[24:])
	out[8] = (w20>>16 | w24<<16) & 0x3fffff
	out[9] = w24 >> 6 & 0x3fffff
	w28 := binary.LittleEndian.Uint32(src[28:])
	out[10] = (w24>>28 | w28<<4) & 0x3fffff
	w32 := binary.LittleEndian.Uint32(src[32:])
	out[11] = (w28>>18 | w32<<14) & 0x3fffff
	out[12] = w32 >> 8 & 0x3fffff
	w36 := binary.LittleEndian.Uint32(src[36:])
	out[13] = (w32>>30 | w36<<2) & 0x3fffff
	w40 := binary.LittleEndian.Uint32(src[40:])
	out[14] = (w36>>20 | w40<<12) & 0x3fffff
	out[15] = w40 >> 10
	w44 := binary.LittleEndian.Uint32(src[44:])
	out[16] = w44 & 0x3fffff
	w48 := binary.LittleEndian.Uint32(src[48:])
	out[17] = (w44>>22 | w48<<10) & 0x3fffff
	w52 := binary.LittleEndian.Uint32(src[52:])
	out[18] = (w48>>12 | w52<<20) & 0x3fffff
	out[19] = w52 >> 2 & 0x3fffff
	w56 := binary.LittleEndian.Uint32(src[56:])
	out[20] = (w52>>24 | w56<<8) & 0x3fffff
	w60 := binary.LittleEndian.Uint32(src[60:])
	out[21] = (w56>>14 | w60<<18) & 0x3fffff
	out[22] = w60 >> 4 & 0x3fffff
	w64 := binary.LittleEndian.Uint32(src[64:])
	out[23] = (w60>>26 | w64<<6) & 0x3fffff
	w68 := binary.LittleEndian.Uint32(src[68:])
	out[24] = (w64>>16 | w68<<16) & 0x3fffff
	out[25] = w68 >> 6 & 0x3fffff
	w72 := binary.LittleEndian.Uint32(src[72:])
	out[26] = (w68>>28 | w72<<4) & 0x3fffff
	w76 := binary.LittleEndian.Uint32(src[76:])
	out[27] = (w72>>18 | w76<<14) & 0x3fffff
	out[28] = w76 >> 8 & 0x3fffff
	w80 := binary.LittleEndian.Uint32(src[80:])
	out[29] = (w76>>30 | w80<<2) & 0x3fffff
	w84 := binary.LittleEndian.Uint32(src[84:])
	out[30] = (w80>>20 | w84<<12) & 0x3fffff
	out[31] = w84 >> 10
}

// unpack23 decodes 32 23-bit values (92 bytes) from src into out.
func unpack23(src []byte, out *[32]uint32) {
	_ = src[91]
	w0 := binary.LittleEndian.Uint32(src[0:])
	out[0] = w0 & 0x7fffff
	w4 := binary.LittleEndian.Uint32(src[4:])
	out[1] = (w0>>23 | w4<<9) & 0x7fffff
	w8 := binary.LittleEndian.Uint32(src[8:])
	out[2] = (w4>>14 | w8<<18) & 0x7fffff
	out[3] = w8 >> 5 & 0x7fffff
	w12 := binary.LittleEndian.Uint32(src[12:])
	out[4] = (w8>>28 | w12<<4) & 0x7fffff
	w16 := binary.LittleEndian.Uint32(src[16:])
	out[5] = (w12>>19 | w16<<13) & 0x7fffff
	w20 := binary.LittleEndian.Uint32(src[20:])
	out[6] = (w16>>10 | w20<<22) & 0x7fffff
	out[7] = w20 >> 1 & 0x7fffff
	w24 := binary.LittleEndian.Uint32(src[24:])
	out[8] = (w20>>24 | w24<<8) & 0x7fffff
	w28 := binary.LittleEndian.Uint32(src[28:])
	out[9] = (w24>>15 | w28<<17) & 0x7fffff
	out[10] = w28 >> 6 & 0x7fffff
	w32 := binary.LittleEndian.Uint32(src[32:])
	out[11] = (w28>>29 | w32<<3) & 0x7fffff
	w36 := binary.LittleEndian.Uint32(src[36:])
	out[12] = (w32>>20 | w36<<12) & 0x7fffff
	w40 := binary.LittleEndian.Uint32(src[40:])
	out[13] = (w36>>11 | w40<<21) & 0x7fffff
	out[14] = w40 >> 2 & 0x7fffff
	w44 := binary.LittleEndian.Uint32(src[44:])
	out[15] = (w40>>25 | w44<<7) & 0x7fffff
	w48 := binary.LittleEndian.Uint32(src[48:])
	out[16] = (w44>>16 | w48<<16) & 0x7fffff
	out[17] = w48 >> 7 & 0x7fffff
	w52 := binary.LittleEndian.Uint32(src[52:])
	out[18] = (w48>>30 | w52<<2) & 0x7fffff
	w56 := binary.LittleEndian.Uint32(src[56:])
	out[19] = (w52>>21 | w56<<11) & 0x7fffff
	w60 := binary.LittleEndian.Uint32(src[60:])
	out[20] = (w56>>12 | w60<<20) & 0x7fffff
	out[21] = w60 >> 3 & 0x7fffff
	w64 := binary.LittleEndian.Uint32(src[64:])
	out[22] = (w60>>26 | w64<<6) & 0x7fffff
	w68 := binary.LittleEndian.Uint32(src[68:])
	out[23] = (w64>>17 | w68<<15) & 0x7fffff
	out[24] = w68 >> 8 & 0x7fffff
	w72 := binary.LittleEndian.Uint32(src[72:])
	out[25] = (w68>>31 | w72<<1) & 0x7fffff
	w76 := binary.LittleEndian.Uint32(src[76:])
	out[26] = (w72>>22 | w76<<10) & 0x7fffff
	w80 := binary.LittleEndian.Uint32(src[80:])
	out[27] = (w76>>13 | w80<<19) & 0x7fffff
	out[28] = w80 >> 4 & 0x7fffff
	w84 := binary.LittleEndian.Uint32(src[84:])
	out[29] = (w80>>27 | w84<<5) & 0x7fffff
	w88 := binary.LittleEndian.Uint32(src[88:])
	out[30] = (w84>>18 | w88<<14) & 0x7fffff
	out[31] = w88 >> 9
}

// unpack24 decodes 32 24-bit values (96 bytes) from src into out.
func unpack24(src []byte, out *[32]uint32) {
	_ = src[95]
	w0 := binary.LittleEndian.Uint32(src[0:])
	out[0] = w0 & 0xffffff
	w4 := binary.LittleEndian.Uint32(src[4:])
	out[1] = (w0>>24 | w4<<8) & 0xffffff
	w8 := binary.LittleEndian.Uint32(src[8:])
	out[2] = (w4>>16 | w8<<16) & 0xffffff
	out[3] = w8 >> 8
	w12 := binary.LittleEndian.Uint32(src[12:])
	out[4] = w12 & 0xffffff
	w16 := binary.LittleEndian.Uint32(src[16:])
	out[5] = (w12>>24 | w16<<8) & 0xffffff
	w20 := binary.LittleEndian.Uint32(src[20:])
	out[6] = (w16>>16 | w20<<16) & 0xffffff
	out[7] = w20 >> 8
	w24 := binary.LittleEndian.Uint32(src[24:])
	out[8] = w24 & 0xffffff
	w28 := binary.LittleEndian.Uint32(src[28:])
	out[9] = (w24>>24 | w28<<8) & 0xffffff
	w32 := binary.LittleEndian.Uint32(src[32:])
	out[10] = (w28>>16 | w32<<16) & 0xffffff
	out[11] = w32 >> 8
	w36 := binary.LittleEndian.Uint32(src[36:])
	out[12] = w36 & 0xffffff
	w40 := binary.LittleEndian.Uint32(src[40:])
	out[13] = (w36>>24 | w40<<8) & 0xffffff
	w44 := binary.LittleEndian.Uint32(src[44:])
	out[14] = (w40>>16 | w44<<16) & 0xffffff
	out[15] = w44 >> 8
	w48 := binary.LittleEndian.Uint32(src[48:])
	out[16] = w48 & 0xffffff
	w52 := binary.LittleEndian.Uint32(src[52:])
	out[17] = (w48>>24 | w52<<8) & 0xffffff
	w56 := binary.LittleEndian.Uint32(src[56:])
	out[18] = (w52>>16 | w56<<16) & 0xffffff
	out[19] = w56 >> 8
	w60 := binary.LittleEndian.Uint32(src[60:])
	out[20] = w60 & 0xffffff
	w64 := binary.LittleEndian.Uint32(src[64:])
	out[21] = (w60>>24 | w64<<8) & 0xffffff
	w68 := binary.LittleEndian.Uint32(src[68:])
	out[22] = (w64>>16 | w68<<16) & 0xffffff
	out[23] = w68 >> 8
	w72 := binary.LittleEndian.Uint32(src[72:])
	out[24] = w72 & 0xffffff
	w76 := binary.LittleEndian.Uint32(src[76:])
	out[25] = (w72>>24 | w76<<8) & 0xffffff
	w80 := binary.LittleEndian.Uint32(src[80:])
	out[26] = (w76>>16 | w80<<16) & 0xffffff
	out[27] = w80 >> 8
	w84 := binary.LittleEndian.Uint32(src[84:])
	out[28] = w84 & 0xffffff
	w88 := binary.LittleEndian.Uint32(src[88:])
	out[29] = (w84>>24 | w88<<8) & 0xffffff
	w92 := binary.LittleEndian.Uint32(src[92:])
	out[30] = (w88>>16 | w92<<16) & 0xffffff
	out[31] = w92 >> 8
}

// unpackDispatch calls the width-b unpack kernel via a direct call per
// case so callers' output arrays stay on the stack.
func unpackDispatch(src []byte, out *[32]uint32, b uint) {
	switch b {
	case 0:
		unpack0(src, out)
	case 1:
		unpack1(src, out)
	case 2:
		unpack2(src, out)
	case 3:
		unpack3(src, out)
	case 4:
		unpack4(src, out)
	case 5:
		unpack5(src, out)
	case 6:
		unpack6(src, out)
	case 7:
		unpack7(src, out)
	case 8:
		unpack8(src, out)
	case 9:
		unpack9(src, out)
	case 10:
		unpack10(src, out)
	case 11:
		unpack11(src, out)
	case 12:
		unpack12(src, out)
	case 13:
		unpack13(src, out)
	case 14:
		unpack14(src, out)
	case 15:
		unpack15(src, out)
	case 16:
		unpack16(src, out)
	case 17:
		unpack17(src, out)
	case 18:
		unpack18(src, out)
	case 19:
		unpack19(src, out)
	case 20:
		unpack20(src, out)
	case 21:
		unpack21(src, out)
	case 22:
		unpack22(src, out)
	case 23:
		unpack23(src, out)
	case 24:
		unpack24(src, out)
	default:
		unpackWide(src, out, b)
	}
}
