	.section .note.GNU-stack,"",@progbits
	.text
	.globl golden_axpy_u
	.type golden_axpy_u, @function
	.p2align 4
golden_axpy_u:
	sub	$80, %rsp
	mov	%rdi, (%rsp)	# arg N
	vmovsd	%xmm0, 8(%rsp)	# arg alpha
	mov	%rsi, 16(%rsp)	# arg X
	mov	%rdx, 24(%rsp)	# arg Y
	mov	16(%rsp), %r8	# home X
	mov	24(%rsp), %r9	# home Y
	mov	(%rsp), %rcx	# home N
	mov	%r9, %rdi
	mov	%r8, %rsi
	mov	$0, %rdx
	jmp	.LBL0
.LBL1:
	# --- mvUnrolledCOMP ---
	vmovsd	(%rsi), %xmm0	# tmp0 = ptr_X0[0]
	vmovsd	(%rdi), %xmm10	# tmp1 = ptr_Y0[0]
	vmovsd	8(%rsp), %xmm20	# load param alpha
	vfmadd231sd	%xmm0, %xmm20, %xmm10	# tmp1 += tmp0*alpha
	vmovsd	%xmm10, (%rdi)	# ptr_Y0[0] = tmp1
	vmovsd	8(%rsi), %xmm1	# tmp2 = ptr_X0[1]
	vmovsd	8(%rdi), %xmm11	# tmp3 = ptr_Y0[1]
	vfmadd231sd	%xmm1, %xmm20, %xmm11	# tmp3 += tmp2*alpha
	vmovsd	%xmm11, 8(%rdi)	# ptr_Y0[1] = tmp3
	vmovsd	16(%rsi), %xmm2	# tmp4 = ptr_X0[2]
	vmovsd	16(%rdi), %xmm12	# tmp5 = ptr_Y0[2]
	vfmadd231sd	%xmm2, %xmm20, %xmm12	# tmp5 += tmp4*alpha
	vmovsd	%xmm12, 16(%rdi)	# ptr_Y0[2] = tmp5
	vmovsd	24(%rsi), %xmm3	# tmp6 = ptr_X0[3]
	vmovsd	24(%rdi), %xmm13	# tmp7 = ptr_Y0[3]
	vfmadd231sd	%xmm3, %xmm20, %xmm13	# tmp7 += tmp6*alpha
	vmovsd	%xmm13, 24(%rdi)	# ptr_Y0[3] = tmp7
	add	$32, %rdi	# ptr_Y0 += 4
	add	$32, %rsi	# ptr_X0 += 4
	add	$4, %rdx
.LBL0:
	cmp	%rcx, %rdx
	jl	.LBL1
	vzeroupper
	add	$80, %rsp
	ret
	.size golden_axpy_u, .-golden_axpy_u
